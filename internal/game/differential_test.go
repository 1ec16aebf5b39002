package game

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"fairtask/internal/dataset"
	"fairtask/internal/fairness"
	"fairtask/internal/model"
	"fairtask/internal/vdps"
)

// sameResult requires bit-identical results: the optimized solver must
// reproduce the reference's assignment, iteration count, convergence flag,
// switch count, summary, and trace exactly — not approximately.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged || got.Switches != want.Switches {
		t.Fatalf("%s: (iterations, converged, switches) = (%d, %v, %d), reference (%d, %v, %d)",
			label, got.Iterations, got.Converged, got.Switches, want.Iterations, want.Converged, want.Switches)
	}
	if len(got.Assignment.Routes) != len(want.Assignment.Routes) {
		t.Fatalf("%s: %d routes, reference %d", label,
			len(got.Assignment.Routes), len(want.Assignment.Routes))
	}
	for w := range want.Assignment.Routes {
		if !slices.Equal(got.Assignment.Routes[w], want.Assignment.Routes[w]) {
			t.Fatalf("%s: worker %d route %v, reference %v",
				label, w, got.Assignment.Routes[w], want.Assignment.Routes[w])
		}
	}
	if got.Summary.Difference != want.Summary.Difference ||
		got.Summary.Average != want.Summary.Average ||
		got.Summary.Total != want.Summary.Total ||
		got.Summary.Min != want.Summary.Min ||
		got.Summary.Max != want.Summary.Max ||
		got.Summary.Assigned != want.Summary.Assigned {
		t.Fatalf("%s: summary %+v, reference %+v", label, got.Summary, want.Summary)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("%s: trace length %d, reference %d", label, len(got.Trace), len(want.Trace))
	}
	for i := range want.Trace {
		if got.Trace[i] != want.Trace[i] {
			t.Fatalf("%s: trace[%d] = %+v, reference %+v", label, i, got.Trace[i], want.Trace[i])
		}
	}
}

// prioritized assigns distinct worker priorities so the priority-aware path
// actually normalizes by different divisors.
func prioritized(in *model.Instance) *model.Instance {
	for w := range in.Workers {
		in.Workers[w].Priority = 0.5 + float64(w%4)
	}
	return in
}

// TestFGTMatchesReference pins FGT's top-available best response
// bit-exactly against the reference full scan across instance shapes,
// seeds, and the option variants that alter the hot loop (priorities,
// random order, tracing, epsilon, the strict NoEpsilon threshold). The
// lattice's exact payoff ties pin the candidate tie-break of the argmax.
func TestFGTMatchesReference(t *testing.T) {
	instances := map[string]*model.Instance{
		"small":    gridInstance(8, 4, 2, 100),
		"mid":      gridInstance(14, 6, 3, 50),
		"tight":    gridInstance(10, 8, 2, 6),
		"priority": prioritized(gridInstance(12, 5, 2, 100)),
		"lattice":  latticeInstance(),
	}
	variants := map[string]Options{
		"default":    {},
		"priorities": {UsePriorities: true},
		"random":     {RandomOrder: true},
		"trace":      {Trace: true},
		"epsilon":    {EpsilonUtility: 0.05, Trace: true},
		"noepsilon":  {EpsilonUtility: NoEpsilon, Trace: true},
	}
	for iname, in := range instances {
		g := mustGen(t, in)
		for vname, opt := range variants {
			for seed := int64(0); seed < 4; seed++ {
				opt := opt
				opt.Seed = seed
				got, err := FGT(context.Background(), NewState(g), opt)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ReferenceFGT(context.Background(), g, opt)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, iname+"/"+vname, got, want)
			}
		}
	}
}

// TestVerifyNEAcceptsFGTResult keeps the top-available certificate
// consistent with the top-available solver, in both plain and priority
// modes.
func TestVerifyNEAcceptsFGTResult(t *testing.T) {
	for _, use := range []bool{false, true} {
		in := prioritized(gridInstance(10, 5, 2, 100))
		g := mustGen(t, in)
		opt := Options{Seed: 3, UsePriorities: use}
		res, err := FGT(context.Background(), NewState(g), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("usePriorities=%v: FGT did not converge", use)
		}
		if err := VerifyNE(loaded(t, g, res.Assignment), NEOptions{Tol: 1e-9, UsePriorities: use}); err != nil {
			t.Fatalf("usePriorities=%v: %v", use, err)
		}
	}
}

// TestNewStateParallelMatchesSequential pins the sharded strategy-space
// construction to the sequential one: same candidates, same order, same
// payoffs. The shard count is passed explicitly, so the comparison does not
// depend on GOMAXPROCS; 13 workers split unevenly over both 3 and 4 shards.
// Run with -race this also exercises the shard boundaries.
func TestNewStateParallelMatchesSequential(t *testing.T) {
	g := mustGen(t, gridInstance(16, 13, 2, 100))
	seq := newState(g, 1)
	for _, par := range []int{3, 4} {
		sharded := newState(g, par)
		if len(seq.Strategies) != len(sharded.Strategies) {
			t.Fatalf("par=%d: worker counts differ: %d vs %d", par, len(seq.Strategies), len(sharded.Strategies))
		}
		for w := range seq.Strategies {
			if len(seq.Strategies[w]) != len(sharded.Strategies[w]) {
				t.Fatalf("par=%d worker %d: %d strategies sequential, %d sharded",
					par, w, len(seq.Strategies[w]), len(sharded.Strategies[w]))
			}
			for si := range seq.Strategies[w] {
				// StrategyRef is comparable; equal refs imply equal sequences.
				if x, y := seq.Strategies[w][si], sharded.Strategies[w][si]; x != y {
					t.Fatalf("par=%d worker %d strategy %d differs: %+v vs %+v", par, w, si, x, y)
				}
			}
		}
	}
}

// TestFGTSelfishWeightsMatchDefault pins what steers FGT at the paper's
// weights: at alpha = beta = 0.5 the best response is "take the
// highest-payoff available strategy", so a selfish FGT (alpha = 0, beta
// 1e-300 — not 0, because the zero value means the defaults) plays the same
// game: same routes, iterations and switches over a GM sweep, at the
// default epsilon and at NoEpsilon. The inequity terms reach a decision
// only through epsilon, and on this sweep they change none.
func TestFGTSelfishWeightsMatchDefault(t *testing.T) {
	shapes := []dataset.GMConfig{
		{Tasks: 200, Workers: 40, DeliveryPoints: 30},
		{Tasks: 400, Workers: 80, DeliveryPoints: 50},
		{Tasks: 600, Workers: 120, DeliveryPoints: 70},
		{Tasks: 800, Workers: 160, DeliveryPoints: 90},
		{Tasks: 1000, Workers: 200, DeliveryPoints: 100},
	}
	selfish := fairness.Params{Alpha: 0, Beta: 1e-300}
	for _, shape := range shapes {
		for inSeed := int64(1); inSeed <= 4; inSeed++ {
			cfg := shape
			cfg.Seed = inSeed
			in, err := dataset.GenerateGM(cfg)
			if err != nil {
				t.Fatal(err)
			}
			g, err := vdps.Generate(in, vdps.Options{Epsilon: 0.6})
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				for _, eps := range []float64{0, NoEpsilon} {
					label := fmt.Sprintf("GM %d/%d/%d seed %d/%d eps %v",
						cfg.Tasks, cfg.Workers, cfg.DeliveryPoints, inSeed, seed, eps)
					opt := Options{Seed: seed, EpsilonUtility: eps}
					def, err := FGT(context.Background(), NewState(g), opt)
					if err != nil {
						t.Fatal(err)
					}
					opt.Fairness = selfish
					self, err := FGT(context.Background(), NewState(g), opt)
					if err != nil {
						t.Fatal(err)
					}
					if def.Iterations != self.Iterations || def.Switches != self.Switches {
						t.Fatalf("%s: (iterations, switches) = (%d, %d) at the defaults, (%d, %d) selfish",
							label, def.Iterations, def.Switches, self.Iterations, self.Switches)
					}
					for w := range def.Assignment.Routes {
						if !slices.Equal(def.Assignment.Routes[w], self.Assignment.Routes[w]) {
							t.Fatalf("%s: worker %d route %v at the defaults, %v selfish",
								label, w, def.Assignment.Routes[w], self.Assignment.Routes[w])
						}
					}
				}
			}
		}
	}
}
