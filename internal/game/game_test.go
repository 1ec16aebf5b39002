package game

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
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
	s.Switch(0, s.Strategies[0][0])
	taken := map[int]bool{}
	for _, p := range s.points(s.Strategies[0][0]) {
		taken[p] = true
	}
	for si, r := range s.Strategies[1] {
		overlaps := false
		for _, p := range s.points(r) {
			if taken[p] {
				overlaps = true
			}
		}
		if overlaps == s.Available(1, r) {
			t.Errorf("strategy %d: overlap=%v but Available=%v", si, overlaps, s.Available(1, r))
		}
	}
	// Null is always available; switching to it releases points.
	if !s.Available(0, Idle) {
		t.Error("Null should be available")
	}
	s.Switch(0, Idle)
	if s.Payoffs[0] != 0 || s.Current[0].Cand != Null {
		t.Error("Null switch did not clear state")
	}
	for si, r := range s.Strategies[1] {
		if !s.Available(1, r) {
			t.Errorf("strategy %d should be available after release", si)
		}
	}
}

func TestSwitchPanicsOnConflict(t *testing.T) {
	in := gridInstance(3, 2, 1, 100)
	s := NewState(mustGen(t, in))
	s.Switch(0, s.Strategies[0][0])
	conflict := Idle
	for _, r := range s.Strategies[1] {
		if !s.Available(1, r) {
			conflict = r
			break
		}
	}
	if conflict.Cand == Null {
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
	for w, r := range s.Current {
		if r.Cand == Null {
			continue
		}
		seq := s.StrategySeq(r)
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

// TestRandomInitMatchesListScan pins RandomInit, which draws from the
// candidate table, to the list scan of ReferenceRandomInit, run on the
// lists as built: at the same seed every worker must hold the same
// sequence at the same payoff bits, the owner tables must match, and the
// RNG must be left at the same next draw, whatever order RandomInit's lists
// hold — as built, shuffled, reversed or sorted by payoff. The instances
// cover what the table draw reads besides the lists: speed overrides on
// every third worker with MaxDP 1-3, the lattice's exact payoff ties,
// workers and a point at the center (a singleton the approach-0 workers
// cannot take), a repaired table whose regenerated singletons sit after
// longer sets, before and after a compaction, and W200. A list that lacks
// the drawn candidate panics.
func TestRandomInitMatchesListScan(t *testing.T) {
	layouts := []struct {
		name string
		set  func(s *State, rng *rand.Rand)
	}{
		{"built", func(*State, *rand.Rand) {}},
		{"shuffled", func(s *State, rng *rand.Rand) {
			for _, list := range s.Strategies {
				rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
			}
		}},
		{"reversed", func(s *State, _ *rand.Rand) {
			for _, list := range s.Strategies {
				slices.Reverse(list)
			}
		}},
		{"sorted", func(s *State, _ *rand.Rand) { s.SortByPayoff() }},
	}
	overridden := 0 // speed-override workers the start assigned
	check := func(label string, g *vdps.Generator, seeds int64) {
		t.Helper()
		assigned := 0
		for seed := int64(1); seed <= seeds; seed++ {
			want := NewState(g)
			wrng := rand.New(rand.NewSource(seed))
			ReferenceRandomInit(want, wrng)
			next := wrng.Int63()
			for _, lay := range layouts {
				got := NewState(g)
				lay.set(got, rand.New(rand.NewSource(-seed)))
				grng := rand.New(rand.NewSource(seed))
				got.RandomInit(grng)
				l := fmt.Sprintf("%s seed %d, %s lists", label, seed, lay.name)
				for w, wi := range want.Current {
					gi := got.Current[w]
					if (gi.Cand == Null) != (wi.Cand == Null) {
						t.Fatalf("%s: worker %d strategy %v, list scan %v", l, w, gi, wi)
					}
					if wi.Cand == Null {
						continue
					}
					if gs, ws := got.StrategySeq(gi), want.StrategySeq(wi); !slices.Equal(gs, ws) ||
						math.Float64bits(got.Payoffs[w]) != math.Float64bits(want.Payoffs[w]) {
						t.Fatalf("%s: worker %d holds %v at %v, list scan %v at %v", l, w, gs, got.Payoffs[w], ws, want.Payoffs[w])
					}
					if assigned++; g.Instance().SpeedFactor(w) != 1 {
						overridden++
					}
				}
				if !slices.Equal(got.owner, want.owner) {
					t.Fatalf("%s: owner table %v, list scan %v", l, got.owner, want.owner)
				}
				if n := grng.Int63(); n != next {
					t.Fatalf("%s: next draw %d, list scan %d", l, n, next)
				}
			}
		}
		if assigned == 0 {
			t.Fatalf("%s: the start assigned no worker", label)
		}
	}

	gm := withWorkers(gmInstance(t, 2, 200, 40, 40), func(w int, wk *model.Worker) {
		wk.MaxDP = 1 + w%3
		if w%3 == 0 {
			wk.Speed = []float64{3.5, 7}[w/3%2]
		}
	})
	gmGen, err := vdps.Generate(gm, vdps.Options{Epsilon: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	check("gm-mixed-speed", gmGen, 8)
	if overridden == 0 {
		t.Fatal("no speed-override worker was assigned a singleton")
	}
	check("lattice", mustGen(t, latticeInstance()), 8)
	check("center", mustGen(t, centerInstance()), 8)

	in := latticeInstance()
	g := mustGen(t, in)
	compacted, tombstoned := 0, 0
	for step := 0; step < 6; step++ {
		mutated := in.Clone()
		pts := []int{step, step + 6}
		for _, p := range pts {
			mutated.Points[p].Tasks[0].Expiry -= float64(1 + step)
		}
		g.Rebind(mutated)
		if _, err := g.RepairExpiries(context.Background(), pts); err != nil {
			t.Fatal(err)
		}
		if len(g.Candidates()) == g.Stats().Candidates {
			compacted++
		} else {
			tombstoned++
		}
		moved, longer := 0, false // singletons after a longer set
		for _, c := range g.Candidates() {
			longer = longer || len(c.Points) > 1
			if longer && len(c.Points) == 1 {
				moved++
			}
		}
		if moved == 0 {
			t.Fatalf("repaired step %d: no regenerated singleton after a longer set", step)
		}
		check(fmt.Sprintf("repaired step %d", step), g, 4)
		in = mutated
	}
	if compacted == 0 || tombstoned == 0 {
		t.Fatalf("%d repairs compacted, %d left tombstones; want both", compacted, tombstoned)
	}

	w200, err := vdps.Generate(gmInstance(t, 1, 1000, 200, 150), vdps.Options{Epsilon: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	check("w200", w200, 2)

	s := NewState(mustGen(t, latticeInstance()))
	s.Strategies[0] = slices.DeleteFunc(s.Strategies[0], func(r vdps.StrategyRef) bool {
		return s.Generator().SetSize(r.Cand) == 1
	})
	msg := func() (msg any) {
		defer func() { msg = recover() }()
		s.RandomInit(rand.New(rand.NewSource(1)))
		return nil
	}()
	if m, _ := msg.(string); !strings.Contains(m, "lists must be what vdps.Generator.WorkerStrategies returns") {
		t.Fatalf("a list without its singletons: panic %v, want the list contract", msg)
	}
}

// naiveTop is the rule TopAvailable implements, written as a plain scan:
// the minimum under Generator.ComparePayoff over the incumbent and every entry
// Available accepts, or Null.
func naiveTop(s *State, w int) vdps.StrategyRef {
	top := Idle
	for _, r := range s.List(w) {
		if r.Cand != s.Current[w].Cand && !s.Available(w, r) {
			continue
		}
		if top.Cand == Null || s.Generator().ComparePayoff(r, top) < 0 {
			top = r
		}
	}
	return top
}

// TestNthBestMatchesSort pins RandomInit's quickselect to a sort by
// ComparePayoff: on sets of 1 to 40 distinct lattice candidates with
// payoffs drawn from three values, so most comparisons are ties decided by
// the candidates' own order, nthBest returns the entry a sort places at k,
// for every k.
func TestNthBestMatchesSort(t *testing.T) {
	g := mustGen(t, latticeInstance())
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + trial%40
		refs := make([]vdps.StrategyRef, n)
		for i, ci := range rng.Perm(len(g.Candidates()))[:n] {
			refs[i] = vdps.StrategyRef{Payoff: float64(1 + rng.Intn(3)), Cand: int32(ci)}
		}
		sorted := slices.Clone(refs)
		slices.SortFunc(sorted, g.ComparePayoff)
		for k := range refs {
			if got := g.NthBest(slices.Clone(refs), k); got != sorted[k] {
				t.Fatalf("trial %d, %d refs, k %d: %+v, sort %+v", trial, n, k, got, sorted[k])
			}
		}
	}
}

// repairedLattice returns the lattice's generator after one expiry repair
// that left tombstones in the table.
func repairedLattice(t *testing.T) *vdps.Generator {
	t.Helper()
	in := latticeInstance()
	g := mustGen(t, in)
	mutated := in.Clone()
	for _, p := range []int{3, 9} {
		mutated.Points[p].Tasks[0].Expiry -= 2
	}
	g.Rebind(mutated)
	if _, err := g.RepairExpiries(context.Background(), []int{3, 9}); err != nil {
		t.Fatal(err)
	}
	if len(g.Candidates()) == g.Stats().Candidates {
		t.Fatal("the repair left no tombstone")
	}
	return g
}

// TestTopAvailableMatchesComparePayoff pins TopAvailable's inline skip test
// and its lowest-point test to the rule they write out: on shuffled lists
// of a contended GM instance, of the tie-heavy lattice and of the lattice
// after a repair that left tombstones, after RandomInit and after every
// switch of one FGT round, every worker's TopAvailable equals naiveTop. The
// same runs on states whose lists are built on demand compare against a
// twin that holds the lists. A worker that holds the lowest point of its
// best entry must still reach it. A hand-built list of equal payoffs in
// descending candidate order pins the tie-break.
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
			want := naiveTop(listedTwin(t, s), w)
			if got := s.TopAvailable(w); got.Cand != want.Cand {
				t.Fatalf("%s worker %d: TopAvailable %v, ComparePayoff scan %v", label, w, got, want)
			}
		}
	}
	gens := []struct {
		name string
		g    *vdps.Generator
	}{{"gm", gmGen}, {"lattice", mustGen(t, latticeInstance())}, {"repaired", repairedLattice(t)}}
	total := 0 // switches checked; the GM starts at an equilibrium, the lattice does not
	for _, gc := range gens {
		for seed := int64(1); seed <= 10; seed++ {
			s := NewState(gc.g)
			rng := rand.New(rand.NewSource(seed))
			label := fmt.Sprintf("%s seed %d", gc.name, seed)
			if seed > 5 {
				s = NewStateOnDemand(gc.g)
				label += " on demand"
			}
			for _, list := range s.Strategies {
				rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
			}
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
				if best := bestResponse(s, u, w, opt.EpsilonUtility); best.Cand != s.Current[w].Cand {
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

	// The worker's own points do not block: holding the singleton of its
	// best entry's lowest point, it still reaches that entry.
	g := gens[1].g
	own := NewState(g)
	best := own.TopAvailable(0)
	low := own.points(best)[0]
	if len(own.points(best)) < 2 {
		t.Fatalf("worker 0's best entry %v is a singleton", own.points(best))
	}
	held := slices.IndexFunc(own.Strategies[0], func(r vdps.StrategyRef) bool {
		return slices.Equal(g.RefPoints(r), []int{low})
	})
	if held < 0 {
		t.Fatalf("worker 0 has no singleton on point %d", low)
	}
	own.Switch(0, own.Strategies[0][held])
	if got := own.TopAvailable(0); got.Cand != best.Cand {
		t.Fatalf("holding point %d: TopAvailable %v, want %v", low, got, best)
	}
	check("own lowest point", own)

	// Equal payoffs in descending candidate order: the last entry, the
	// lowest candidate, is the top until another worker takes its point.
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
	if got := s.TopAvailable(0); got.Cand != list[len(list)-1].Cand {
		t.Fatalf("tied list: TopAvailable %v, want %v (lowest candidate)", got, list[len(list)-1])
	}
	check("tied list", s)
	s.Switch(1, strategies[1][0])
	if got := s.TopAvailable(0); got.Cand != list[len(list)-2].Cand {
		t.Fatalf("tied list, lowest taken: TopAvailable %v, want %v", got, list[len(list)-2])
	}
	check("tied list, lowest taken", s)
}

// TestTopAvailableSidesAgree pins both ways TopAvailable reaches its argmax
// to the rule they implement: for every worker of a fresh state, after
// RandomInit and after each switch of an FGT run to its equilibrium, the
// list scan and the point walk both equal naiveTop, on lists as built,
// shuffled and sorted by payoff, and on a state whose lists are built on
// demand. The instances are W200, where the start leaves nearly every point
// held; a GM instance with a speed override on every third worker and MaxDP
// 1-3; the tie-heavy lattice; and the lattice after a repair that left
// tombstones and appended candidates. The walk's index must hold exactly
// the live candidates, each under its lowest point, the free-point count
// must match the owner table, and the choice must take each way at least
// once. A state without lists is ranked against a twin that holds them,
// its counted choice must equal the twin's, and only its walk is called
// directly; its best responses build the lists when one scans, and both a
// run that stays without lists and one that builds them must occur.
func TestTopAvailableSidesAgree(t *testing.T) {
	layouts := []struct {
		name string
		set  func(s *State, rng *rand.Rand)
	}{
		{"built", func(*State, *rand.Rand) {}},
		{"shuffled", func(s *State, rng *rand.Rand) {
			for _, list := range s.Strategies {
				rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
			}
		}},
		{"sorted", func(s *State, _ *rand.Rand) { s.SortByPayoff() }},
		{"on-demand", nil}, // NewStateOnDemand
	}
	w200, err := vdps.Generate(gmInstance(t, 1, 1000, 200, 150), vdps.Options{Epsilon: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	mixed := withWorkers(gmInstance(t, 2, 200, 40, 40), func(w int, wk *model.Worker) {
		wk.MaxDP = 1 + w%3
		if w%3 == 0 {
			wk.Speed = []float64{3.5, 7}[w/3%2]
		}
	})
	mixedGen, err := vdps.Generate(mixed, vdps.Options{Epsilon: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	gens := []struct {
		name string
		g    *vdps.Generator
	}{{"w200", w200}, {"gm-mixed-speed", mixedGen}, {"lattice", mustGen(t, latticeInstance())}, {"repaired", repairedLattice(t)}}

	ways := map[bool]int{}     // calls by the choice: true for the walk
	heldOwn := 0               // states where a worker holds a point of its top
	onDemand := map[bool]int{} // on-demand runs by whether they built the lists
	check := func(label string, s *State) {
		t.Helper()
		free := 0
		for _, o := range s.owner {
			if o == -1 {
				free++
			}
		}
		if s.free != free {
			t.Fatalf("%s: free-point count %d, owner table %d", label, s.free, free)
		}
		twin := listedTwin(t, s)
		for w := range s.Current {
			want := naiveTop(twin, w)
			if s.walks(w) != twin.walks(w) {
				t.Fatalf("%s worker %d: the counted choice walks %v, the listed one %v", label, w, s.walks(w), twin.walks(w))
			}
			if s.Strategies != nil {
				if got := s.scanTop(w); got.Cand != want.Cand {
					t.Fatalf("%s worker %d: list scan %v, ComparePayoff scan %v", label, w, got, want)
				}
			}
			if got := s.walkTop(w); got.Cand != want.Cand {
				t.Fatalf("%s worker %d: point walk %v, ComparePayoff scan %v", label, w, got, want)
			}
			ways[s.walks(w)]++
		}
	}
	for _, gc := range gens {
		for seed, lay := range layouts {
			s := NewState(gc.g)
			rng := rand.New(rand.NewSource(int64(seed + 1)))
			if lay.set == nil {
				s = NewStateOnDemand(gc.g)
			} else {
				lay.set(s, rng)
			}
			label := fmt.Sprintf("%s, %s lists", gc.name, lay.name)
			check(label+", fresh", s)
			checkLowIndex(t, label, s)
			heldOwn += checkOwnPoints(t, label, s, check)
			s.RandomInit(rng)
			check(label+", init", s)
			opt := Options{}.withDefaults()
			u, err := newIAUScratch(opt.Fairness, nil, len(s.Current))
			if err != nil {
				t.Fatal(err)
			}
			for round, switches := 1, 1; switches > 0; round++ {
				switches = 0
				for w := range s.Current {
					if best := bestResponse(s, u, w, opt.EpsilonUtility); best.Cand != s.Current[w].Cand {
						s.Switch(w, best)
						switches++
						check(fmt.Sprintf("%s, round %d switch %d", label, round, switches), s)
					}
				}
			}
			if lay.set == nil {
				onDemand[s.Strategies != nil]++
			}
		}
	}
	if ways[true] == 0 || ways[false] == 0 {
		t.Fatalf("the choice walked %d calls and scanned %d; want both ways taken", ways[true], ways[false])
	}
	if onDemand[true] == 0 || onDemand[false] == 0 {
		t.Fatalf("%d on-demand runs built their lists and %d did not; want both", onDemand[true], onDemand[false])
	}
	if heldOwn == 0 {
		t.Fatal("no worker held a point of its top strategy")
	}
}

// checkOwnPoints runs check on states over the fresh state s's lists where
// the first worker whose top strategy has several points holds the
// singleton on one of them, for each such point in turn: the worker's own
// points do not block, so its top stays the same. It returns the number of
// states checked.
func checkOwnPoints(t *testing.T, label string, s *State, check func(string, *State)) int {
	g := s.Generator()
	twin := listedTwin(t, s)
	for w := range s.Current {
		top := naiveTop(twin, w)
		if top.Cand == Null || len(s.points(top)) < 2 {
			continue
		}
		n := 0
		for _, p := range s.points(top) {
			held := slices.IndexFunc(twin.Strategies[w], func(r vdps.StrategyRef) bool {
				return slices.Equal(g.RefPoints(r), []int{p})
			})
			if held < 0 {
				continue
			}
			own := s.Fresh()
			own.Switch(w, twin.Strategies[w][held])
			check(fmt.Sprintf("%s, worker %d holding point %d", label, w, p), own)
			n++
		}
		return n
	}
	return 0
}

// listedTwin returns s when it holds its lists, and otherwise a state over
// s's generator that holds them and s's joint strategy, so that a check can
// read lists without building s's own.
func listedTwin(t *testing.T, s *State) *State {
	t.Helper()
	if s.Strategies != nil {
		return s
	}
	twin := NewStateWithStrategies(s.gen, s.gen.StrategySpaces(1))
	if err := twin.LoadStrategies(s.Current); err != nil {
		t.Fatal(err)
	}
	return twin
}

// checkLowIndex requires the walk's index of s to hold exactly the live
// candidates, each once, in table order, under its lowest point.
func checkLowIndex(t *testing.T, label string, s *State) {
	t.Helper()
	g := s.Generator()
	if len(s.lowStart) != len(s.owner)+1 || len(s.byLow) != g.Stats().Candidates {
		t.Fatalf("%s: index of %d groups over %d candidates, want %d groups over the %d live",
			label, len(s.lowStart)-1, len(s.byLow), len(s.owner), g.Stats().Candidates)
	}
	for p := range s.owner {
		group := s.byLow[s.lowStart[p]:s.lowStart[p+1]]
		for i, ci := range group {
			c := g.Candidates()[ci]
			if !c.Live() || c.Points[0] != p || (i > 0 && ci <= group[i-1]) {
				t.Fatalf("%s: group %d holds candidate %d (%v) at %d", label, p, ci, c.Points, i)
			}
		}
	}
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
		if u := try(0); s.Current[w].Cand != Null && u > cur+1e-9 {
			t.Errorf("worker %d: Null improves IAU %g -> %g", w, cur, u)
		}
		for si, r := range s.Strategies[w] {
			if r.Cand == s.Current[w].Cand || !s.Available(w, r) {
				continue
			}
			if u := try(r.Payoff); u > cur+1e-9 {
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
	if err := VerifyNE(loaded(t, g, res.Assignment), Options{}); err != nil {
		t.Errorf("FGT output rejected by VerifyNE: %v", err)
	}
	// A GTA assignment is generally NOT a Nash equilibrium of the IAU game;
	// on most instances VerifyNE must find a deviation. (If it happens to be
	// one, the check is vacuous but not wrong, so only log.)
	s := NewState(g)
	s.RandomInit(rand.New(rand.NewSource(1)))
	if err := VerifyNE(s, Options{}); err == nil {
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

// TestVerifyNEStrictTolerance pins the EpsilonUtility sentinel: negative
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
	if err := VerifyNE(loaded(t, g, res.Assignment), Options{EpsilonUtility: -1}); err != nil {
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
			if si := s.Lookup(w, r); si.Cand != Null {
				t.Fatalf("%s worker %d: %s %v found at strategy %v", tc.name, w, kind, r, si)
			}
			return 1
		}
		var reversed, otherEntry, otherWorker int
		for w := range full {
			for _, f := range full[w] {
				r := s.Lookup(w, f.Seq)
				if r.Cand == Null {
					t.Fatalf("%s worker %d: member %v not found", tc.name, w, f.Seq)
				}
				if int(r.Cand) != f.Candidate ||
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
