package assign

import (
	"context"
	"testing"

	"fairtask/internal/game"
	"fairtask/internal/payoff"
	"fairtask/internal/vdps"
)

func TestMMTAName(t *testing.T) {
	if (MMTA{}).Name() != "MMTA" {
		t.Error("unexpected name")
	}
}

func TestMMTAValidAndDeterministic(t *testing.T) {
	in := gridInstance(10, 5, 2, 100, 900)
	g := mustGen(t, in)
	a, err := (MMTA{}).Assign(context.Background(), game.NewState(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Assignment.Validate(in); err != nil {
		t.Fatalf("MMTA assignment invalid: %v", err)
	}
	b, err := (MMTA{}).Assign(context.Background(), game.NewState(g))
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.Total != b.Summary.Total {
		t.Error("MMTA not deterministic")
	}
}

func TestMMTANoWorkers(t *testing.T) {
	in := gridInstance(3, 1, 1, 100, 901)
	in.Workers = nil
	g, err := vdps.Generate(in, vdps.Options{MaxSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (MMTA{}).Assign(context.Background(), game.NewState(g)); err != game.ErrNoWorkers {
		t.Errorf("err = %v, want ErrNoWorkers", err)
	}
}

// Post-condition: no single worker switch can raise the minimum payoff —
// in particular, the worst-off worker has no available better strategy.
func TestMMTALocalMaxMinOptimum(t *testing.T) {
	in := gridInstance(12, 6, 2, 100, 902)
	g := mustGen(t, in)
	res, err := (MMTA{}).Assign(context.Background(), game.NewState(g))
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the final state.
	s := game.NewState(g)
	for w, r := range res.Assignment.Routes {
		if len(r) == 0 {
			continue
		}
		for _, si := range s.Strategies[w] {
			seq := s.StrategySeq(si)
			if len(seq) == len(r) && routeEq(seq, r) {
				s.Switch(w, si)
				break
			}
		}
	}
	for w := range s.Current {
		if si := bestAvailableAbove(s, w, s.Payoffs[w]); si.Cand != game.Null {
			t.Errorf("worker %d (payoff %g) still has a better available strategy",
				w, s.Payoffs[w])
		}
	}
}

func routeEq(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// MMTA should never leave the minimum payoff below GTA's minimum on the
// same instance (both are greedy-style, but MMTA prioritizes the worst-off
// worker at every step).
func TestMMTAMinAtLeastGTAMin(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		in := gridInstance(10, 5, 2, 100, 910+seed)
		g := mustGen(t, in)
		gta, err := (GTA{}).Assign(context.Background(), game.NewState(g))
		if err != nil {
			t.Fatal(err)
		}
		mmta, err := (MMTA{}).Assign(context.Background(), game.NewState(g))
		if err != nil {
			t.Fatal(err)
		}
		gMin := payoff.MinPayoff(gta.Summary.Payoffs)
		mMin := payoff.MinPayoff(mmta.Summary.Payoffs)
		if mMin < gMin-1e-9 {
			t.Errorf("seed %d: MMTA min %g below GTA min %g", seed, mMin, gMin)
		}
	}
}
