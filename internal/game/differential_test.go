package game

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"fairtask/internal/dataset"
	"fairtask/internal/fairness"
	"fairtask/internal/geo"
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

// TestNewStateParallelMatchesSequential pins the batch strategy-space build
// to the one-worker rule: at 1 to 4 goroutines, every list newState builds
// equals vdps.Generator.WorkerStrategies entry by entry — candidate,
// frontier entry and payoff bits, in ascending candidate order, nil when
// empty — and is allocated at exactly its length. The instances cover what
// the chained build leans on: workers with a speed override among
// default-speed ones, MaxDP cycling 0-3 (0 is unlimited), the tie-heavy
// lattice, equal approach times, and the center edge, where workers stand
// at the center and a point lies there too, so the approach-0 worker's list
// lacks a strategy its successors' lists hold. Run with -race this also
// exercises the shard boundaries.
func TestNewStateParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		in   *model.Instance
		opt  vdps.Options
	}{
		{"grid", gridInstance(16, 13, 2, 100), vdps.Options{}},
		{"tight", gridInstance(14, 12, 3, 6), vdps.Options{}},
		{"gm-mixed-speed", withWorkers(gmInstance(t, 2, 200, 40, 40), func(w int, wk *model.Worker) {
			wk.Speed = []float64{4, 5, 6}[w%3]
		}), vdps.Options{Epsilon: 0.8}},
		{"gm-maxdp-cycle", withWorkers(gmInstance(t, 3, 120, 24, 24), func(w int, wk *model.Worker) {
			wk.MaxDP = w % 4
		}), vdps.Options{Epsilon: 1, MaxSize: 4}},
		{"lattice", latticeInstance(), vdps.Options{}},
		{"equal-approach", equalApproachInstance(), vdps.Options{}},
		{"center", centerInstance(), vdps.Options{}},
	}
	for _, tc := range cases {
		g, err := vdps.Generate(tc.in, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		var sc vdps.StrategyScratch
		want := make([][]vdps.StrategyRef, len(tc.in.Workers))
		for w := range want {
			want[w] = g.WorkerStrategies(w, &sc)
		}
		for par := 1; par <= 4; par++ {
			got := newState(g, par).Strategies
			if len(got) != len(want) {
				t.Fatalf("%s par=%d: %d lists for %d workers", tc.name, par, len(got), len(want))
			}
			for w := range want {
				label := fmt.Sprintf("%s par=%d worker %d", tc.name, par, w)
				sameList(t, label, got[w], want[w])
				if cap(got[w]) != len(got[w]) {
					t.Fatalf("%s: capacity %d for %d strategies", label, cap(got[w]), len(got[w]))
				}
			}
		}
	}
}

// sameList requires two strategy lists to match entry by entry, payoff
// bits included, and to be both nil or both non-nil.
func sameList(t *testing.T, label string, got, want []vdps.StrategyRef) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%s: %d strategies (nil %v), WorkerStrategies %d (nil %v)",
			label, len(got), got == nil, len(want), want == nil)
	}
	for i := range want {
		x, y := got[i], want[i]
		if x.Cand != y.Cand || x.Entry != y.Entry || math.Float64bits(x.Payoff) != math.Float64bits(y.Payoff) {
			t.Fatalf("%s strategy %d: %+v, WorkerStrategies %+v", label, i, x, y)
		}
	}
}

// gmInstance generates a GM instance of the given shape.
func gmInstance(t *testing.T, seed int64, tasks, workers, points int) *model.Instance {
	t.Helper()
	in, err := dataset.GenerateGM(dataset.GMConfig{
		Seed: seed, Tasks: tasks, Workers: workers, DeliveryPoints: points,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// withWorkers applies set to every worker of in and returns in.
func withWorkers(in *model.Instance, set func(w int, wk *model.Worker)) *model.Instance {
	for w := range in.Workers {
		set(w, &in.Workers[w])
	}
	return in
}

// equalApproachInstance puts its workers in groups of four at one distance
// from the center — (±r, 0) and (0, ±r) under the Euclidean metric — so the
// approach times within a group are exactly equal, and the build order
// breaks their ties by index.
func equalApproachInstance() *model.Instance {
	in := gridInstance(14, 0, 3, 8)
	for _, r := range []float64{0.5, 1, 1.5, 2.5} {
		for _, loc := range []geo.Point{geo.Pt(r, 0), geo.Pt(0, r), geo.Pt(-r, 0), geo.Pt(0, -r)} {
			in.Workers = append(in.Workers, model.Worker{ID: len(in.Workers), Loc: loc, MaxDP: 3})
		}
	}
	return in
}

// centerInstance is the lattice with a point at the center as well, and two
// more workers standing there. An approach-0 worker cannot take the center
// point's singleton, whose total travel time is 0, but every worker with a
// positive approach time can.
func centerInstance() *model.Instance {
	in := latticeInstance()
	id := len(in.Points)
	in.Points = append(in.Points, model.DeliveryPoint{
		ID: id, Loc: geo.Pt(0, 0),
		Tasks: []model.Task{{ID: id, Point: id, Expiry: 100, Reward: 2}},
	})
	for i := 0; i < 2; i++ {
		in.Workers = append(in.Workers, model.Worker{ID: len(in.Workers), Loc: geo.Pt(0, 0), MaxDP: 3})
	}
	return in
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
