package game

import (
	"context"
	"math"
	"math/rand"
	"testing"

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

func mustGen(t *testing.T, in *model.Instance) *vdps.Generator {
	t.Helper()
	g, err := vdps.Generate(in, vdps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
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

func TestFGTProducesValidAssignment(t *testing.T) {
	in := gridInstance(8, 4, 3, 100)
	res, err := FGT(context.Background(), mustGen(t, in), Options{Seed: 7})
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
	res, err := FGT(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("no convergence")
	}
	// Rebuild the final state.
	s := NewState(g)
	for w, r := range res.Assignment.Routes {
		if len(r) == 0 {
			continue
		}
		found := false
		for si := range s.Strategies[w] {
			if routesEqual(s.StrategySeq(w, si), r) {
				s.Switch(w, si)
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("final route %v not in worker %d's strategy space", r, w)
		}
	}
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

func routesEqual(a, b model.Route) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFGTDeterministicPerSeed(t *testing.T) {
	in := gridInstance(7, 3, 2, 100)
	g := mustGen(t, in)
	a, err := FGT(context.Background(), g, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FGT(context.Background(), g, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.Difference != b.Summary.Difference || a.Iterations != b.Iterations {
		t.Error("same seed produced different results")
	}
	for w := range a.Assignment.Routes {
		if !routesEqual(a.Assignment.Routes[w], b.Assignment.Routes[w]) {
			t.Fatalf("route mismatch for worker %d", w)
		}
	}
}

func TestFGTTrace(t *testing.T) {
	in := gridInstance(8, 4, 2, 100)
	res, err := FGT(context.Background(), mustGen(t, in), Options{Seed: 1, Trace: true})
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
	if _, err := FGT(context.Background(), g, Options{}); err != ErrNoWorkers {
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
	res, err := FGT(context.Background(), g, Options{Seed: 5})
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
	res, err := FGT(context.Background(), mustGen(t, in), Options{Seed: 2, UsePriorities: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(in); err != nil {
		t.Errorf("priority FGT assignment invalid: %v", err)
	}
}

func TestEligibleWorkers(t *testing.T) {
	in := gridInstance(4, 2, 2, 100)
	s := NewState(mustGen(t, in))
	if got := s.EligibleWorkers(); got != 2 {
		t.Errorf("EligibleWorkers = %d, want 2", got)
	}
}

func TestFGTRandomOrderStillConvergesToNE(t *testing.T) {
	in := gridInstance(8, 4, 2, 100)
	g := mustGen(t, in)
	res, err := FGT(context.Background(), g, Options{Seed: 13, RandomOrder: true})
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
	res, err := FGT(context.Background(), g, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("no convergence")
	}
	if err := VerifyNE(g, res.Assignment, fairness.Params{}, 0); err != nil {
		t.Errorf("FGT output rejected by VerifyNE: %v", err)
	}
	// A GTA assignment is generally NOT a Nash equilibrium of the IAU game;
	// on most instances VerifyNE must find a deviation. (If it happens to be
	// one, the check is vacuous but not wrong, so only log.)
	s := NewState(g)
	s.RandomInit(rand.New(rand.NewSource(1)))
	if err := VerifyNE(g, s.Assignment(), fairness.Params{}, 0); err == nil {
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
	got, err := FGT(context.Background(), g, Options{Seed: 1, EpsilonUtility: NoEpsilon, Trace: true})
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
	res, err := FGT(context.Background(), g, Options{Seed: 2, EpsilonUtility: NoEpsilon})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("FGT did not converge")
	}
	if err := VerifyNEOpts(g, res.Assignment, NEOptions{Tol: -1}); err != nil {
		t.Fatalf("strict certificate rejected a strict equilibrium: %v", err)
	}
}
