package assign

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

func mustGen(t *testing.T, in *model.Instance) *vdps.Generator {
	t.Helper()
	g, err := vdps.Generate(in, vdps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNames(t *testing.T) {
	if (GTA{}).Name() != "GTA" || (MPTA{}).Name() != "MPTA" {
		t.Error("unexpected algorithm names")
	}
}

func TestGTAValidAndDeterministic(t *testing.T) {
	in := gridInstance(8, 4, 2, 100, 1)
	g := mustGen(t, in)
	a, err := (GTA{}).Assign(context.Background(), game.NewState(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Assignment.Validate(in); err != nil {
		t.Fatalf("GTA assignment invalid: %v", err)
	}
	b, err := (GTA{}).Assign(context.Background(), game.NewState(g))
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.Total != b.Summary.Total {
		t.Error("GTA not deterministic")
	}
	if a.Summary.Assigned == 0 {
		t.Error("GTA assigned nothing")
	}
}

// The first greedy pick is the globally best (worker, VDPS) payoff; that
// worker must hold a strategy achieving its personal best payoff.
func TestGTAFirstPickIsGlobalBest(t *testing.T) {
	in := gridInstance(8, 4, 2, 100, 2)
	g := mustGen(t, in)
	res, err := (GTA{}).Assign(context.Background(), game.NewState(g))
	if err != nil {
		t.Fatal(err)
	}
	bestPayoff := 0.0
	bestW := -1
	for w := range in.Workers {
		ws := g.ForWorker(w)
		if len(ws) > 0 && ws[0].Payoff > bestPayoff {
			bestPayoff = ws[0].Payoff
			bestW = w
		}
	}
	if bestW == -1 {
		t.Skip("no strategies")
	}
	got := res.Summary.Payoffs[bestW]
	if math.Abs(got-bestPayoff) > 1e-9 {
		t.Errorf("global-best worker %d got payoff %g, want its best %g", bestW, got, bestPayoff)
	}
}

func TestGTANoWorkers(t *testing.T) {
	in := gridInstance(3, 1, 1, 100, 3)
	in.Workers = nil
	g, err := vdps.Generate(in, vdps.Options{MaxSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (GTA{}).Assign(context.Background(), game.NewState(g)); err != game.ErrNoWorkers {
		t.Errorf("err = %v, want ErrNoWorkers", err)
	}
	if _, err := (MPTA{}).Assign(context.Background(), game.NewState(g)); err != game.ErrNoWorkers {
		t.Errorf("MPTA err = %v, want ErrNoWorkers", err)
	}
}

func TestMPTAValid(t *testing.T) {
	in := gridInstance(8, 4, 2, 100, 4)
	g := mustGen(t, in)
	res, err := (MPTA{}).Assign(context.Background(), game.NewState(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(in); err != nil {
		t.Fatalf("MPTA assignment invalid: %v", err)
	}
	if !res.Converged {
		t.Error("small instance should be solved exactly")
	}
}

// MPTA maximizes total payoff: it must match brute force on tiny instances
// and dominate GTA's total payoff everywhere.
func TestMPTAOptimalOnTinyInstances(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		in := gridInstance(5, 3, 2, 100, seed+100)
		g := mustGen(t, in)
		res, err := (MPTA{}).Assign(context.Background(), game.NewState(g))
		if err != nil {
			t.Fatal(err)
		}
		want := bruteBestTotal(g)
		if math.Abs(res.Summary.Total-want) > 1e-9 {
			t.Errorf("seed %d: MPTA total %g, brute-force optimum %g",
				seed, res.Summary.Total, want)
		}
	}
}

// bruteBestTotal enumerates all disjoint joint strategies exhaustively.
func bruteBestTotal(g *vdps.Generator) float64 {
	s := game.NewState(g)
	var best float64
	var rec func(w int, total float64)
	rec = func(w int, total float64) {
		if w == len(s.Current) {
			if total > best {
				best = total
			}
			return
		}
		rec(w+1, total) // null
		for _, r := range s.Strategies[w] {
			if !s.Available(w, r) {
				continue
			}
			s.Switch(w, r)
			rec(w+1, total+r.Payoff)
			s.Switch(w, game.Idle)
		}
	}
	rec(0, 0)
	return best
}

func TestMPTADominatesGTA(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		in := gridInstance(9, 4, 2, 100, seed+200)
		g := mustGen(t, in)
		gta, err := (GTA{}).Assign(context.Background(), game.NewState(g))
		if err != nil {
			t.Fatal(err)
		}
		mpta, err := (MPTA{}).Assign(context.Background(), game.NewState(g))
		if err != nil {
			t.Fatal(err)
		}
		if mpta.Summary.Total < gta.Summary.Total-1e-9 {
			t.Errorf("seed %d: MPTA total %g below GTA total %g",
				seed, mpta.Summary.Total, gta.Summary.Total)
		}
	}
}

// With a tiny node budget MPTA falls back to local search but still returns
// a valid assignment.
func TestMPTABudgetFallback(t *testing.T) {
	in := gridInstance(10, 5, 2, 100, 300)
	g := mustGen(t, in)
	res, err := (MPTA{NodeBudget: 10}).Assign(context.Background(), game.NewState(g))
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("budget-limited run should not claim optimality")
	}
	if err := res.Assignment.Validate(in); err != nil {
		t.Fatalf("fallback assignment invalid: %v", err)
	}
	// Local search guarantees at least greedy-quality totals; sanity only.
	if res.Summary.Total <= 0 {
		t.Error("fallback produced empty assignment")
	}
}

func TestMPTATopKRestriction(t *testing.T) {
	in := gridInstance(8, 3, 2, 100, 400)
	g := mustGen(t, in)
	full, err := (MPTA{}).Assign(context.Background(), game.NewState(g))
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := (MPTA{TopK: 1}).Assign(context.Background(), game.NewState(g))
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Summary.Total > full.Summary.Total+1e-9 {
		t.Error("restricting candidates should not raise the optimum")
	}
	if err := narrow.Assignment.Validate(in); err != nil {
		t.Fatalf("narrow assignment invalid: %v", err)
	}
}

// TestComponentsSeparatedClusters builds two far-apart point clusters with
// their own workers; the conflict graph must split into (at least) two
// components, and MPTA must still find the global brute-force optimum.
func TestComponentsSeparatedClusters(t *testing.T) {
	in := &model.Instance{
		Center: geo.Pt(0, 0),
		Travel: travel.MustModel(geo.Euclidean{}, 1),
	}
	mk := func(cx, cy float64, pointBase, workerBase int) {
		for i := 0; i < 3; i++ {
			pi := pointBase + i
			in.Points = append(in.Points, model.DeliveryPoint{
				ID:  pi,
				Loc: geo.Pt(cx+float64(i)*0.5, cy),
				Tasks: []model.Task{{
					ID: pi, Point: pi, Expiry: 50, Reward: 1,
				}},
			})
		}
		for i := 0; i < 2; i++ {
			in.Workers = append(in.Workers, model.Worker{
				ID: workerBase + i, Loc: geo.Pt(cx, cy+1), MaxDP: 2,
			})
		}
	}
	mk(0, 5, 0, 0)
	mk(400, 5, 3, 2) // far cluster: no shared strategies possible

	g, err := vdps.Generate(in, vdps.Options{Epsilon: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := game.NewState(g)
	comps := components(s, 64)
	if len(comps) < 2 {
		t.Fatalf("components = %d, want >= 2 for separated clusters", len(comps))
	}
	seen := map[int]bool{}
	total := 0
	for _, c := range comps {
		for _, w := range c {
			if seen[w] {
				t.Fatalf("worker %d in two components", w)
			}
			seen[w] = true
			total++
		}
	}
	if total != len(in.Workers) {
		t.Fatalf("components cover %d workers, want %d", total, len(in.Workers))
	}

	res, err := (MPTA{}).Assign(context.Background(), game.NewState(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(in); err != nil {
		t.Fatalf("decomposed MPTA invalid: %v", err)
	}
	want := bruteBestTotal(g)
	if math.Abs(res.Summary.Total-want) > 1e-9 {
		t.Errorf("decomposed MPTA total %g, brute optimum %g", res.Summary.Total, want)
	}
}

func TestMPTADisableDecompositionSameOptimum(t *testing.T) {
	in := gridInstance(6, 3, 2, 100, 500)
	g := mustGen(t, in)
	dec, err := (MPTA{}).Assign(context.Background(), game.NewState(g))
	if err != nil {
		t.Fatal(err)
	}
	mono, err := (MPTA{DisableDecomposition: true}).Assign(context.Background(), game.NewState(g))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dec.Summary.Total-mono.Summary.Total) > 1e-9 {
		t.Errorf("decomposed total %g != monolithic total %g",
			dec.Summary.Total, mono.Summary.Total)
	}
}
