package evo

import (
	"context"
	"testing"

	"fairtask/internal/game"
	"fairtask/internal/geo"
	"fairtask/internal/model"
	"fairtask/internal/travel"
)

// ineligibleWorkerInstance has two eligible workers and one worker placed so
// far away that its strategy space is empty. Worker 0 sits on the center and
// is the only one able to reach the tight-deadline point 0; workers 0 and 1
// can balance payoffs exactly (point 0 alone pays 1, points 1+2 together pay
// 4 over 4 hours of travel from worker 1).
func ineligibleWorkerInstance() *model.Instance {
	return &model.Instance{
		Center: geo.Pt(0, 0),
		Travel: travel.MustModel(geo.Euclidean{}, 1),
		Points: []model.DeliveryPoint{
			{ID: 0, Loc: geo.Pt(1, 0), Tasks: []model.Task{{ID: 0, Point: 0, Expiry: 1, Reward: 1}}},
			{ID: 1, Loc: geo.Pt(0, 2), Tasks: []model.Task{{ID: 1, Point: 1, Expiry: 10, Reward: 1.5}}},
			{ID: 2, Loc: geo.Pt(0, 3), Tasks: []model.Task{{ID: 2, Point: 2, Expiry: 10, Reward: 2.5}}},
		},
		Workers: []model.Worker{
			{ID: 0, Loc: geo.Pt(0, 0), MaxDP: 2},
			{ID: 1, Loc: geo.Pt(0, 1), MaxDP: 2},
			{ID: 2, Loc: geo.Pt(100, 100), MaxDP: 2}, // cannot reach anything in time
		},
	}
}

// TestIEGTConvergesWithIneligibleWorker is the regression test for the
// sigma_dot = 0 convergence check: it used to include workers with empty
// strategy spaces (payoff pinned at zero), so the equal-payoff criterion
// could never fire while any such worker existed, and runs only terminated
// via a full no-change round. With the fix, at least one seed must converge
// in the very round that equalized the population payoffs (final trace row
// with Changes > 0).
func TestIEGTConvergesWithIneligibleWorker(t *testing.T) {
	in := ineligibleWorkerInstance()
	g := mustGen(t, in)
	if got := len(g.ForWorker(2)); got != 0 {
		t.Fatalf("worker 2 has %d strategies, want 0 (test setup)", got)
	}

	var equalPayoffExit bool
	for seed := int64(0); seed < 10; seed++ {
		res, err := IEGT(context.Background(), game.NewState(g), Options{Seed: seed, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: IEGT did not converge", seed)
		}
		if err := VerifyEquilibrium(loaded(t, g, res.Assignment)); err != nil {
			t.Errorf("seed %d: converged state rejected: %v", seed, err)
		}
		if n := len(res.Trace); n > 0 && res.Trace[n-1].Changes > 0 {
			equalPayoffExit = true
		}
	}
	if !equalPayoffExit {
		t.Error("no seed converged via the population equal-payoff criterion; " +
			"sigma_dot = 0 check is still blocked by strategy-less workers")
	}
}

// TestIEGTTraceRecordsPotential is the regression test for the IEGT trace:
// IterationStat.Potential was left at zero because the evolutionary dynamics
// have no potential function of their own. It now carries Phi at the default
// IAU weights so FGT and IEGT traces are comparable.
func TestIEGTTraceRecordsPotential(t *testing.T) {
	in := gridInstance(8, 4, 2, 100, 17)
	res, err := IEGT(context.Background(), game.NewState(mustGen(t, in)), Options{Seed: 3, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	for i, st := range res.Trace {
		if st.Potential == 0 {
			t.Fatalf("trace row %d has zero potential: %+v", i, st)
		}
	}
}

// TestPopulationPayoffs pins the population definition: only workers with a
// non-empty strategy space evolve.
func TestPopulationPayoffs(t *testing.T) {
	in := ineligibleWorkerInstance()
	g := mustGen(t, in)
	res, err := IEGT(context.Background(), game.NewState(g), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pop := populationPayoffs(loaded(t, g, res.Assignment))
	if len(pop) != 2 {
		t.Fatalf("population size = %d, want 2 (worker 2 is ineligible)", len(pop))
	}
}
