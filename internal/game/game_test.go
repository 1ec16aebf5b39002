package game

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fairtask/internal/dataset"
	"fairtask/internal/fairness"
	"fairtask/internal/geo"
	"fairtask/internal/model"
	"fairtask/internal/travel"
	"fairtask/internal/vdps"
)

// gridInstance builds an instance with points on a small grid around the
// center and several workers, loose deadlines, unit rewards.
func gridInstance(nPoints, nWorkers, maxDP int, expiry float64) *model.Instance {
	in := &model.Instance{
		Center: geo.Pt(0, 0),
		Travel: travel.MustModel(geo.Euclidean{}, 1),
	}
	rng := rand.New(rand.NewSource(123))
	for i := 0; i < nPoints; i++ {
		in.Points = append(in.Points, model.DeliveryPoint{
			ID:  i,
			Loc: geo.Pt(rng.Float64()*6-3, rng.Float64()*6-3),
			Tasks: []model.Task{
				{ID: 2 * i, Point: i, Expiry: expiry, Reward: 1},
				{ID: 2*i + 1, Point: i, Expiry: expiry, Reward: 1},
			},
		})
	}
	for w := 0; w < nWorkers; w++ {
		in.Workers = append(in.Workers, model.Worker{
			ID:    w,
			Loc:   geo.Pt(rng.Float64()*6-3, rng.Float64()*6-3),
			MaxDP: maxDP,
		})
	}
	return in
}

// latticeInstance is a tie-heavy instance (a copy of the vdps test helper):
// the 24 integer points of [-2,2]² around a center at the origin, under the
// Manhattan metric at speed 1, with rewards 1-3, so many strategies of one
// worker have exactly equal payoffs.
func latticeInstance() *model.Instance {
	in := &model.Instance{
		Center: geo.Pt(0, 0),
		Travel: travel.MustModel(geo.Manhattan{}, 1),
	}
	for x := -2; x <= 2; x++ {
		for y := -2; y <= 2; y++ {
			if x == 0 && y == 0 {
				continue
			}
			id := len(in.Points)
			in.Points = append(in.Points, model.DeliveryPoint{
				ID:  id,
				Loc: geo.Pt(float64(x), float64(y)),
				Tasks: []model.Task{{
					ID: id, Point: id, Expiry: 100, Reward: float64(1 + id%3),
				}},
			})
		}
	}
	for w := 0; w < 8; w++ {
		in.Workers = append(in.Workers, model.Worker{
			ID: w, Loc: geo.Pt(float64(w%3-1), float64(w/3-1)), MaxDP: 3,
		})
	}
	return in
}

func mustGen(t *testing.T, in *model.Instance) *vdps.Generator {
	t.Helper()
	g, err := vdps.Generate(in, vdps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// loaded returns a fresh state over g holding the assignment a.
func loaded(t *testing.T, g *vdps.Generator, a *model.Assignment) *State {
	t.Helper()
	s := NewState(g)
	if err := s.LoadAssignment(a); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStateSwitchAndAvailability(t *testing.T) {
	in := gridInstance(4, 2, 2, 100)
	s := NewState(mustGen(t, in))
	if len(s.Strategies[0]) == 0 || len(s.Strategies[1]) == 0 {
		t.Fatal("workers should have strategies")
	}
	// Give worker 0 its first strategy; any strategy of worker 1 sharing a
	// point must become unavailable.
	s.Switch(0, 0)
	taken := map[int]bool{}
	for _, p := range s.points(0, 0) {
		taken[p] = true
	}
	for si := range s.Strategies[1] {
		overlaps := false
		for _, p := range s.points(1, si) {
			if taken[p] {
				overlaps = true
			}
		}
		if overlaps == s.Available(1, si) {
			t.Errorf("strategy %d: overlap=%v but Available=%v", si, overlaps, s.Available(1, si))
		}
	}
	// Null is always available; switching to it releases points.
	if !s.Available(0, Null) {
		t.Error("Null should be available")
	}
	s.Switch(0, Null)
	if s.Payoffs[0] != 0 || s.Current[0] != Null {
		t.Error("Null switch did not clear state")
	}
	for si := range s.Strategies[1] {
		if !s.Available(1, si) {
			t.Errorf("strategy %d should be available after release", si)
		}
	}
}

func TestSwitchPanicsOnConflict(t *testing.T) {
	in := gridInstance(3, 2, 1, 100)
	s := NewState(mustGen(t, in))
	s.Switch(0, 0)
	conflict := -1
	for si := range s.Strategies[1] {
		if !s.Available(1, si) {
			conflict = si
			break
		}
	}
	if conflict == -1 {
		t.Skip("no conflicting strategy in this topology")
	}
	defer func() {
		if recover() == nil {
			t.Error("Switch to conflicting strategy did not panic")
		}
	}()
	s.Switch(1, conflict)
}

func TestRandomInitSingletonsAndDisjoint(t *testing.T) {
	in := gridInstance(6, 4, 3, 100)
	s := NewState(mustGen(t, in))
	s.RandomInit(rand.New(rand.NewSource(1)))
	seen := map[int]bool{}
	for w, si := range s.Current {
		if si == Null {
			continue
		}
		seq := s.StrategySeq(w, si)
		if len(seq) != 1 {
			t.Errorf("worker %d initialized with non-singleton %v", w, seq)
		}
		if seen[seq[0]] {
			t.Errorf("point %d assigned twice", seq[0])
		}
		seen[seq[0]] = true
	}
	if err := s.Assignment().Validate(in); err != nil {
		t.Errorf("initial assignment invalid: %v", err)
	}
}

// naiveTop is the rule TopAvailable implements, written as a plain scan:
// the minimum under Generator.ComparePayoff over the incumbent and every entry
// Available accepts, or Null.
func naiveTop(s *State, w int) int {
	list := s.Strategies[w]
	top := Null
	for si := range list {
		if si != s.Current[w] && !s.Available(w, si) {
			continue
		}
		if top == Null || s.Generator().ComparePayoff(list[si], list[top]) < 0 {
			top = si
		}
	}
	return top
}

// TestTopAvailableMatchesComparePayoff pins TopAvailable's inline skip test
// to the rule it writes out: on shuffled lists of a contended GM instance
// and of the tie-heavy lattice, after RandomInit and after every switch of
// one FGT round, every worker's TopAvailable equals naiveTop. A hand-built
// list of equal payoffs in descending candidate order pins the tie-break.
func TestTopAvailableMatchesComparePayoff(t *testing.T) {
	gm, err := dataset.GenerateGM(dataset.GMConfig{Seed: 1, Tasks: 400, Workers: 60, DeliveryPoints: 50})
	if err != nil {
		t.Fatal(err)
	}
	gmGen, err := vdps.Generate(gm, vdps.Options{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, s *State) {
		t.Helper()
		for w := range s.Current {
			if got, want := s.TopAvailable(w), naiveTop(s, w); got != want {
				t.Fatalf("%s worker %d: TopAvailable %d, ComparePayoff scan %d", label, w, got, want)
			}
		}
	}
	gens := []struct {
		name string
		g    *vdps.Generator
	}{{"gm", gmGen}, {"lattice", mustGen(t, latticeInstance())}}
	total := 0 // switches checked; the GM starts at an equilibrium, the lattice does not
	for _, gc := range gens {
		for seed := int64(1); seed <= 5; seed++ {
			s := NewState(gc.g)
			rng := rand.New(rand.NewSource(seed))
			for _, list := range s.Strategies {
				rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
			}
			label := fmt.Sprintf("%s seed %d", gc.name, seed)
			check(label+" fresh", s)
			s.RandomInit(rng)
			check(label+" init", s)
			opt := Options{}.withDefaults()
			u, err := newIAUScratch(opt.Fairness, nil, len(s.Current))
			if err != nil {
				t.Fatal(err)
			}
			switches := 0
			for w := range s.Current {
				if best := bestResponse(s, u, w, opt.EpsilonUtility); best != s.Current[w] {
					s.Switch(w, best)
					switches++
					check(fmt.Sprintf("%s switch %d", label, switches), s)
				}
			}
			total += switches
		}
	}
	if total == 0 {
		t.Fatal("no FGT round made a switch")
	}

	// Equal payoffs in descending candidate order: the last entry, the
	// lowest candidate, is the top until another worker takes its point.
	g := gens[1].g
	var singles []int32
	for ci, c := range g.Candidates() {
		if len(c.Points) == 1 && len(singles) < 4 {
			singles = append(singles, int32(ci))
		}
	}
	list := make([]vdps.StrategyRef, len(singles))
	for i, ci := range singles {
		list[len(list)-1-i] = vdps.StrategyRef{Payoff: 1, Cand: ci}
	}
	strategies := make([][]vdps.StrategyRef, len(g.Instance().Workers))
	strategies[0] = list
	strategies[1] = []vdps.StrategyRef{{Payoff: 1, Cand: singles[0]}}
	s := NewStateWithStrategies(g, strategies)
	if got := s.TopAvailable(0); got != len(list)-1 {
		t.Fatalf("tied list: TopAvailable %d, want %d (lowest candidate)", got, len(list)-1)
	}
	check("tied list", s)
	s.Switch(1, 0)
	if got := s.TopAvailable(0); got != len(list)-2 {
		t.Fatalf("tied list, lowest taken: TopAvailable %d, want %d", got, len(list)-2)
	}
	check("tied list, lowest taken", s)
}

func TestFGTProducesValidAssignment(t *testing.T) {
	in := gridInstance(8, 4, 3, 100)
	res, err := FGT(context.Background(), NewState(mustGen(t, in)), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("FGT did not converge on a small instance")
	}
	if err := res.Assignment.Validate(in); err != nil {
		t.Errorf("FGT assignment invalid: %v", err)
	}
	if res.Summary.Assigned == 0 {
		t.Error("FGT assigned no workers")
	}
}

// TestFGTNashEquilibrium verifies the post-condition of Algorithm 2: at the
// returned joint strategy, no worker has an *available* strategy (or Null)
// with strictly higher IAU.
func TestFGTNashEquilibrium(t *testing.T) {
	in := gridInstance(8, 4, 2, 100)
	g := mustGen(t, in)
	opt := Options{Seed: 3}
	res, err := FGT(context.Background(), NewState(g), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("no convergence")
	}
	s := loaded(t, g, res.Assignment)
	prm := fairness.DefaultParams()
	for w := range s.Current {
		cur := fairness.IAU(prm, s.Payoffs, w)
		try := func(p float64) float64 {
			tmp := append([]float64(nil), s.Payoffs...)
			tmp[w] = p
			return fairness.IAU(prm, tmp, w)
		}
		if u := try(0); s.Current[w] != Null && u > cur+1e-9 {
			t.Errorf("worker %d: Null improves IAU %g -> %g", w, cur, u)
		}
		for si := range s.Strategies[w] {
			if si == s.Current[w] || !s.Available(w, si) {
				continue
			}
			if u := try(s.Strategies[w][si].Payoff); u > cur+1e-9 {
				t.Errorf("worker %d: strategy %d improves IAU %g -> %g (not a NE)",
					w, si, cur, u)
			}
		}
	}
}

func TestFGTDeterministicPerSeed(t *testing.T) {
	in := gridInstance(7, 3, 2, 100)
	g := mustGen(t, in)
	a, err := FGT(context.Background(), NewState(g), Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FGT(context.Background(), NewState(g), Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.Difference != b.Summary.Difference || a.Iterations != b.Iterations {
		t.Error("same seed produced different results")
	}
	for w := range a.Assignment.Routes {
		if !slices.Equal(a.Assignment.Routes[w], b.Assignment.Routes[w]) {
			t.Fatalf("route mismatch for worker %d", w)
		}
	}
}

func TestFGTTrace(t *testing.T) {
	in := gridInstance(8, 4, 2, 100)
	res, err := FGT(context.Background(), NewState(mustGen(t, in)), Options{Seed: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != res.Iterations {
		t.Fatalf("trace length %d != iterations %d", len(res.Trace), res.Iterations)
	}
	last := res.Trace[len(res.Trace)-1]
	if last.Changes != 0 {
		t.Error("final round should have zero changes at a NE")
	}
	if math.Abs(last.PayoffDiff-res.Summary.Difference) > 1e-9 {
		t.Error("trace PayoffDiff disagrees with final summary")
	}
}

func TestFGTNoWorkers(t *testing.T) {
	in := gridInstance(3, 1, 1, 100)
	in.Workers = nil
	g, err := vdps.Generate(in, vdps.Options{MaxSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FGT(context.Background(), NewState(g), Options{}); err != ErrNoWorkers {
		t.Errorf("err = %v, want ErrNoWorkers", err)
	}
}

func TestFGTTightDeadlinesNullWorkers(t *testing.T) {
	// Deadlines so tight nothing is reachable: everyone ends up Null.
	in := gridInstance(4, 3, 2, 0.0001)
	g, err := vdps.Generate(in, vdps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := FGT(context.Background(), NewState(g), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Assigned != 0 {
		t.Errorf("assigned %d workers despite unreachable deadlines", res.Summary.Assigned)
	}
	if !res.Converged {
		t.Error("trivial game should converge immediately")
	}
}

func TestFGTWithPriorities(t *testing.T) {
	in := gridInstance(8, 3, 2, 100)
	in.Workers[0].Priority = 3
	res, err := FGT(context.Background(), NewState(mustGen(t, in)), Options{Seed: 2, UsePriorities: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(in); err != nil {
		t.Errorf("priority FGT assignment invalid: %v", err)
	}
}

func TestFGTRandomOrderStillConvergesToNE(t *testing.T) {
	in := gridInstance(8, 4, 2, 100)
	g := mustGen(t, in)
	res, err := FGT(context.Background(), NewState(g), Options{Seed: 13, RandomOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("random-order FGT did not converge")
	}
	if err := res.Assignment.Validate(in); err != nil {
		t.Errorf("random-order FGT assignment invalid: %v", err)
	}
}

func TestVerifyNE(t *testing.T) {
	in := gridInstance(8, 4, 2, 100)
	g := mustGen(t, in)
	res, err := FGT(context.Background(), NewState(g), Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("no convergence")
	}
	if err := VerifyNE(loaded(t, g, res.Assignment), NEOptions{}); err != nil {
		t.Errorf("FGT output rejected by VerifyNE: %v", err)
	}
	// A GTA assignment is generally NOT a Nash equilibrium of the IAU game;
	// on most instances VerifyNE must find a deviation. (If it happens to be
	// one, the check is vacuous but not wrong, so only log.)
	s := NewState(g)
	s.RandomInit(rand.New(rand.NewSource(1)))
	if err := VerifyNE(s, NEOptions{}); err == nil {
		t.Log("random initial assignment happened to be a NE")
	}
}

func TestLoadAssignmentErrors(t *testing.T) {
	in := gridInstance(6, 3, 2, 100)
	g := mustGen(t, in)
	s := NewState(g)
	// Wrong worker count.
	if err := s.LoadAssignment(model.NewAssignment(1)); err == nil {
		t.Error("wrong route count accepted")
	}
	// Route not in strategy space (fabricated ordering unlikely to exist).
	a := model.NewAssignment(3)
	a.Routes[0] = model.Route{5, 0} // probably not a generated min-time order
	if err := s.LoadAssignment(a); err == nil {
		t.Log("fabricated route coincided with a real strategy (acceptable)")
	}
}

// TestWithDefaultsEpsilonSentinel is the regression test for the
// EpsilonUtility zero-collapse bug: the zero value keeps the numerical
// default, NoEpsilon (and any negative value) selects the strict best
// response with a threshold of exactly 0, and positive values pass through.
func TestWithDefaultsEpsilonSentinel(t *testing.T) {
	cases := []struct {
		in, want float64
	}{
		{0, 1e-12},
		{NoEpsilon, 0},
		{-0.5, 0},
		{0.05, 0.05},
	}
	for _, c := range cases {
		got := Options{EpsilonUtility: c.in}.withDefaults().EpsilonUtility
		if got != c.want {
			t.Errorf("EpsilonUtility %v: withDefaults -> %v, want %v", c.in, got, c.want)
		}
	}
	// The reference solver shares withDefaults, so the sentinel changes both
	// sides of the differential tests identically; a quick solve pins that
	// the strict threshold is accepted end to end.
	g := mustGen(t, gridInstance(8, 4, 2, 100))
	got, err := FGT(context.Background(), NewState(g), Options{Seed: 1, EpsilonUtility: NoEpsilon, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferenceFGT(context.Background(), g, Options{Seed: 1, EpsilonUtility: NoEpsilon, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "noepsilon", got, want)
}

// TestVerifyNEStrictTolerance pins the NEOptions.Tol sentinel: negative
// demands a strict equilibrium, zero keeps the numerical default. A strict
// certificate must still accept a strict-best-response equilibrium.
func TestVerifyNEStrictTolerance(t *testing.T) {
	g := mustGen(t, gridInstance(10, 5, 2, 100))
	res, err := FGT(context.Background(), NewState(g), Options{Seed: 2, EpsilonUtility: NoEpsilon})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("FGT did not converge")
	}
	if err := VerifyNE(loaded(t, g, res.Assignment), NEOptions{Tol: -1}); err != nil {
		t.Fatalf("strict certificate rejected a strict equilibrium: %v", err)
	}
}

// TestLookupMatchesForWorker pins the one membership rule to its oracle,
// vdps.Generator.ForWorker, the independent full form of a worker's
// strategy space. Lookup finds every ForWorker sequence at an entry with
// the same candidate and payoff bits, and returns Null for three kinds of
// non-member: a multi-point member reversed (when the reversal is not
// itself a member), another frontier sequence of a candidate the worker
// gets, and another worker's sequence outside this worker's space. The GM
// instances slow every third worker to 0.7x (the scaled-speed branch) and
// cap some workers at two points; the lattice holds exact payoff ties.
func TestLookupMatchesForWorker(t *testing.T) {
	gm := func(seed int64) *model.Instance {
		in, err := dataset.GenerateGM(dataset.GMConfig{Seed: seed, Tasks: 120, Workers: 12, DeliveryPoints: 30})
		if err != nil {
			t.Fatal(err)
		}
		for w := range in.Workers {
			if w%3 == 0 {
				in.Workers[w].Speed = 0.7 * in.Travel.Speed()
			}
			if w%4 == 1 {
				in.Workers[w].MaxDP = 2
			}
		}
		return in
	}
	cases := []struct {
		name string
		in   *model.Instance
		opt  vdps.Options
	}{
		{"gm1", gm(1), vdps.Options{Epsilon: 1.5}},
		{"gm2", gm(2), vdps.Options{}},
		{"lattice", latticeInstance(), vdps.Options{}},
	}
	for _, tc := range cases {
		g, err := vdps.Generate(tc.in, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		s := NewState(g)
		full := make([][]vdps.WorkerVDPS, len(tc.in.Workers))
		member := make([]map[string]bool, len(tc.in.Workers))
		for w := range full {
			full[w] = g.ForWorker(w)
			member[w] = make(map[string]bool, len(full[w]))
			for _, f := range full[w] {
				member[w][fmt.Sprint(f.Seq)] = true
			}
		}
		absent := func(kind string, w int, r model.Route) int {
			if member[w][fmt.Sprint(r)] {
				return 0
			}
			if si := s.Lookup(w, r); si != Null {
				t.Fatalf("%s worker %d: %s %v found at strategy %d", tc.name, w, kind, r, si)
			}
			return 1
		}
		var reversed, otherEntry, otherWorker int
		for w := range full {
			for _, f := range full[w] {
				si := s.Lookup(w, f.Seq)
				if si == Null {
					t.Fatalf("%s worker %d: member %v not found", tc.name, w, f.Seq)
				}
				if r := s.Strategies[w][si]; int(r.Cand) != f.Candidate ||
					math.Float64bits(r.Payoff) != math.Float64bits(f.Payoff) {
					t.Fatalf("%s worker %d: %v found as (cand %d, payoff %v), ForWorker (cand %d, payoff %v)",
						tc.name, w, f.Seq, r.Cand, r.Payoff, f.Candidate, f.Payoff)
				}
				if len(f.Seq) > 1 {
					rev := slices.Clone(f.Seq)
					slices.Reverse(rev)
					reversed += absent("reversed member", w, rev)
				}
				for _, st := range g.Candidates()[f.Candidate].Frontier {
					if !slices.Equal(st.Seq, f.Seq) {
						otherEntry += absent("other frontier sequence", w, st.Seq)
					}
				}
			}
			for _, f := range full[(w+1)%len(full)] {
				otherWorker += absent("other worker's sequence", w, f.Seq)
			}
		}
		// The lattice's frontiers hold one entry each, and its workers share
		// one strategy space, so only the reversals apply there.
		if reversed == 0 || (tc.name != "lattice" && (otherEntry == 0 || otherWorker == 0)) {
			t.Fatalf("%s: a non-member kind went untested: %d reversed, %d other frontier entries, %d other workers'",
				tc.name, reversed, otherEntry, otherWorker)
		}
	}
}
