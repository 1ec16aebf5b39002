package assign

import (
	"context"
	"errors"
	"math"
	"testing"

	"fairtask/internal/evo"
	"fairtask/internal/game"
	"fairtask/internal/vdps"
)

func TestExactName(t *testing.T) {
	if (Exact{}).Name() != "EXACT" {
		t.Error("unexpected name")
	}
}

func TestScore(t *testing.T) {
	p := []float64{1, 3}
	// avg 2, diff 2 -> score 2 - lambda*2.
	if got := Score(p, 1); math.Abs(got-0) > 1e-9 {
		t.Errorf("Score(lambda=1) = %g, want 0", got)
	}
	if got := Score(p, 0.5); math.Abs(got-1) > 1e-9 {
		t.Errorf("Score(lambda=0.5) = %g, want 1", got)
	}
}

func TestExactNoWorkers(t *testing.T) {
	in := gridInstance(3, 1, 1, 100, 700)
	in.Workers = nil
	g, err := vdps.Generate(in, vdps.Options{MaxSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Exact{}).Assign(context.Background(), game.NewState(g)); err != game.ErrNoWorkers {
		t.Errorf("err = %v, want ErrNoWorkers", err)
	}
}

func TestExactSearchTooLarge(t *testing.T) {
	in := gridInstance(10, 5, 3, 100, 701)
	g := mustGen(t, in)
	if _, err := (Exact{MaxJointStrategies: 10}).Assign(context.Background(), game.NewState(g)); !errors.Is(err, ErrSearchTooLarge) {
		t.Errorf("err = %v, want ErrSearchTooLarge", err)
	}
}

// Exact must attain the best scalarized score: verified against an
// independent enumeration.
func TestExactIsOptimal(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		in := gridInstance(5, 3, 2, 100, 710+seed)
		g := mustGen(t, in)
		res, err := (Exact{}).Assign(context.Background(), game.NewState(g))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Assignment.Validate(in); err != nil {
			t.Fatalf("exact assignment invalid: %v", err)
		}
		got := Score(res.Summary.Payoffs, 1)
		want := bruteBestScore(g, 1)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("seed %d: exact score %g, brute %g", seed, got, want)
		}
	}
}

// bruteBestScore re-enumerates the joint space with independent bookkeeping.
func bruteBestScore(g *vdps.Generator, lambda float64) float64 {
	s := game.NewState(g)
	n := len(s.Current)
	payoffs := make([]float64, n)
	best := Score(payoffs, lambda)
	var rec func(w int)
	rec = func(w int) {
		if w == n {
			if sc := Score(payoffs, lambda); sc > best {
				best = sc
			}
			return
		}
		payoffs[w] = 0
		rec(w + 1)
		for _, r := range s.Strategies[w] {
			if !s.Available(w, r) {
				continue
			}
			s.Switch(w, r)
			payoffs[w] = r.Payoff
			rec(w + 1)
			s.Switch(w, game.Idle)
			payoffs[w] = 0
		}
	}
	rec(0)
	return best
}

// No heuristic can beat Exact's scalarized score (sanity for both sides).
func TestHeuristicsNeverBeatExact(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		in := gridInstance(6, 3, 2, 100, 720+seed)
		g := mustGen(t, in)
		exact, err := (Exact{}).Assign(context.Background(), game.NewState(g))
		if err != nil {
			t.Fatal(err)
		}
		exactScore := Score(exact.Summary.Payoffs, 1)
		iegt, err := evo.IEGT(context.Background(), game.NewState(g), evo.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if sc := Score(iegt.Summary.Payoffs, 1); sc > exactScore+1e-9 {
			t.Errorf("seed %d: IEGT score %g beats exact %g — exact solver is wrong",
				seed, sc, exactScore)
		}
		gta, err := (GTA{}).Assign(context.Background(), game.NewState(g))
		if err != nil {
			t.Fatal(err)
		}
		if sc := Score(gta.Summary.Payoffs, 1); sc > exactScore+1e-9 {
			t.Errorf("seed %d: GTA score %g beats exact %g", seed, sc, exactScore)
		}
	}
}

// Lambda controls the trade-off: with lambda = 0 Exact maximizes average
// payoff only, so its average must be at least the lambda = 1 solution's.
func TestExactLambdaTradeoff(t *testing.T) {
	in := gridInstance(6, 3, 2, 100, 730)
	g := mustGen(t, in)
	payoffOnly, err := (Exact{Lambda: 1e-9}).Assign(context.Background(), game.NewState(g))
	if err != nil {
		t.Fatal(err)
	}
	balanced, err := (Exact{Lambda: 1}).Assign(context.Background(), game.NewState(g))
	if err != nil {
		t.Fatal(err)
	}
	if payoffOnly.Summary.Average < balanced.Summary.Average-1e-9 {
		t.Errorf("payoff-weighted average %g below balanced %g",
			payoffOnly.Summary.Average, balanced.Summary.Average)
	}
	if balanced.Summary.Difference > payoffOnly.Summary.Difference+1e-9 {
		t.Errorf("balanced diff %g exceeds payoff-weighted diff %g",
			balanced.Summary.Difference, payoffOnly.Summary.Difference)
	}
}
