package evo

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"fairtask/internal/game"
	"fairtask/internal/geo"
	"fairtask/internal/model"
	"fairtask/internal/travel"
	"fairtask/internal/vdps"
)

func gridInstance(nPoints, nWorkers, maxDP int, expiry float64, seed int64) *model.Instance {
	in := &model.Instance{
		Center: geo.Pt(0, 0),
		Travel: travel.MustModel(geo.Euclidean{}, 1),
	}
	rng := rand.New(rand.NewSource(seed))
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
func latticeInstance() *model.Instance { return latticeOf(2, 8, 3) }

// latticeOf is the lattice of integer points in [-r,r]² without the
// center, with the given number of workers and their MaxDP.
func latticeOf(r, workers, maxDP int) *model.Instance {
	in := &model.Instance{
		Center: geo.Pt(0, 0),
		Travel: travel.MustModel(geo.Manhattan{}, 1),
	}
	for x := -r; x <= r; x++ {
		for y := -r; y <= r; y++ {
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
	for w := 0; w < workers; w++ {
		in.Workers = append(in.Workers, model.Worker{
			ID: w, Loc: geo.Pt(float64(w%3-1), float64(w/3-1)), MaxDP: maxDP,
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

// loaded returns a fresh game state over g holding the assignment a.
func loaded(t *testing.T, g *vdps.Generator, a *model.Assignment) *game.State {
	t.Helper()
	s := game.NewState(g)
	if err := s.LoadAssignment(a); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestIEGTProducesValidAssignment(t *testing.T) {
	in := gridInstance(8, 4, 3, 100, 1)
	res, err := IEGT(context.Background(), game.NewState(mustGen(t, in)), Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("IEGT did not converge on a small instance")
	}
	if err := res.Assignment.Validate(in); err != nil {
		t.Errorf("IEGT assignment invalid: %v", err)
	}
	if res.Summary.Assigned == 0 {
		t.Error("IEGT assigned no workers")
	}
}

// The IEGT stable state must satisfy: no below-average worker has an
// available strictly better strategy (otherwise the round would have
// switched it and not terminated).
func TestIEGTEquilibriumCondition(t *testing.T) {
	in := gridInstance(10, 5, 2, 100, 3)
	g := mustGen(t, in)
	res, err := IEGT(context.Background(), game.NewState(g), Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("no convergence")
	}
	s := loaded(t, g, res.Assignment)
	ubar := populationAverage(s)
	for w := range s.Current {
		if s.Payoffs[w] >= ubar || len(s.Strategies[w]) == 0 {
			continue
		}
		var buf []vdps.StrategyRef
		if _, ok := randomBetterStrategy(s, w, rand.New(rand.NewSource(0)), &buf); ok {
			t.Errorf("worker %d is below average (%g < %g) yet has a better available strategy",
				w, s.Payoffs[w], ubar)
		}
	}
}

func TestIEGTDeterministicPerSeed(t *testing.T) {
	in := gridInstance(8, 4, 2, 100, 5)
	g := mustGen(t, in)
	a, _ := IEGT(context.Background(), game.NewState(g), Options{Seed: 21})
	b, _ := IEGT(context.Background(), game.NewState(g), Options{Seed: 21})
	if a.Summary.Difference != b.Summary.Difference || a.Iterations != b.Iterations {
		t.Error("same seed produced different results")
	}
}

func TestIEGTNoWorkers(t *testing.T) {
	in := gridInstance(3, 1, 1, 100, 7)
	in.Workers = nil
	g, err := vdps.Generate(in, vdps.Options{MaxSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := IEGT(context.Background(), game.NewState(g), Options{}); err != game.ErrNoWorkers {
		t.Errorf("err = %v, want ErrNoWorkers", err)
	}
}

func TestIEGTTrace(t *testing.T) {
	in := gridInstance(10, 4, 2, 100, 9)
	res, err := IEGT(context.Background(), game.NewState(mustGen(t, in)), Options{Seed: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != res.Iterations {
		t.Fatalf("trace length %d != iterations %d", len(res.Trace), res.Iterations)
	}
	if math.Abs(res.Trace[len(res.Trace)-1].PayoffDiff-res.Summary.Difference) > 1e-9 {
		t.Error("trace disagrees with final summary")
	}
}

func TestPayoffsEqual(t *testing.T) {
	if !payoffsEqual(nil, 0.1) || !payoffsEqual([]float64{1}, 0.1) {
		t.Error("degenerate slices should be equal")
	}
	if !payoffsEqual([]float64{1, 1.05}, 0.1) {
		t.Error("within tolerance should be equal")
	}
	if payoffsEqual([]float64{1, 2}, 0.1) {
		t.Error("outside tolerance should be unequal")
	}
}

func TestReplicatorSign(t *testing.T) {
	if Replicator(0.5, 1, 2) >= 0 {
		t.Error("below-average utility should give negative sigma_dot")
	}
	if Replicator(0.5, 3, 2) <= 0 {
		t.Error("above-average utility should give positive sigma_dot")
	}
	if Replicator(0.5, 2, 2) != 0 {
		t.Error("average utility should give zero sigma_dot")
	}
	if Replicator(0, 5, 1) != 0 {
		t.Error("zero share should give zero sigma_dot")
	}
}

func TestPopulationShares(t *testing.T) {
	in := gridInstance(6, 3, 2, 100, 13)
	g := mustGen(t, in)
	s := game.NewState(g)
	s.RandomInit(rand.New(rand.NewSource(1)))
	shares := PopulationShares(s)
	var sum float64
	for w, sh := range shares {
		if (s.Current[w].Cand == game.Null) != (sh == 0) {
			t.Errorf("worker %d: share %g inconsistent with strategy", w, sh)
		}
		sum += sh
	}
	if sum > 0 && math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
}

// On a symmetric instance IEGT should typically reach a lower payoff
// difference than a pure payoff-maximizing choice would; here we just check
// the difference is finite and the run improves or maintains fairness
// relative to its own start.
func TestIEGTImprovesFairness(t *testing.T) {
	in := gridInstance(12, 6, 2, 100, 17)
	g := mustGen(t, in)
	res, err := IEGT(context.Background(), game.NewState(g), Options{Seed: 4, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) < 1 {
		t.Fatal("no trace")
	}
	first := res.Trace[0].PayoffDiff
	last := res.Trace[len(res.Trace)-1].PayoffDiff
	if math.IsNaN(last) || math.IsInf(last, 0) {
		t.Fatal("non-finite payoff difference")
	}
	if last > first*3+1e-9 {
		t.Errorf("fairness deteriorated drastically: %g -> %g", first, last)
	}
}

func TestIEGTMutationStillValid(t *testing.T) {
	in := gridInstance(10, 5, 2, 100, 21)
	g := mustGen(t, in)
	res, err := IEGT(context.Background(), game.NewState(g), Options{Seed: 6, MutationRate: 0.3, MaxIterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(in); err != nil {
		t.Errorf("mutated IEGT assignment invalid: %v", err)
	}
}

func TestIEGTZeroMutationMatchesBaseline(t *testing.T) {
	in := gridInstance(8, 4, 2, 100, 23)
	g := mustGen(t, in)
	a, err := IEGT(context.Background(), game.NewState(g), Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := IEGT(context.Background(), game.NewState(g), Options{Seed: 9, MutationRate: 0})
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.Difference != b.Summary.Difference || a.Iterations != b.Iterations {
		t.Error("zero mutation rate changed the run")
	}
}

func TestVerifyEquilibrium(t *testing.T) {
	in := gridInstance(10, 5, 2, 100, 31)
	g := mustGen(t, in)
	res, err := IEGT(context.Background(), game.NewState(g), Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("no convergence")
	}
	if err := VerifyEquilibrium(loaded(t, g, res.Assignment), Options{}); err != nil {
		t.Errorf("IEGT output rejected by VerifyEquilibrium: %v", err)
	}
}

// TestWithDefaultsToleranceSentinel is the regression test for the Tolerance
// zero-collapse bug, mirroring the game package's EpsilonUtility sentinel:
// the zero value keeps the numerical default, NoTolerance (and any negative
// value) selects an exact-zero tolerance, and positive values pass through.
func TestWithDefaultsToleranceSentinel(t *testing.T) {
	cases := []struct {
		in, want float64
	}{
		{0, 1e-9},
		{NoTolerance, 0},
		{-0.5, 0},
		{0.5, 0.5},
	}
	for _, c := range cases {
		got := Options{Tolerance: c.in}.withDefaults().Tolerance
		if got != c.want {
			t.Errorf("Tolerance %v: withDefaults -> %v, want %v", c.in, got, c.want)
		}
	}
}
