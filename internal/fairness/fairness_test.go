package fairness

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMPLP(t *testing.T) {
	p := []float64{1, 3, 5}
	// Worker 0 (payoff 1): MP = (3-1)+(5-1) = 6, LP = 0.
	if got := MP(p, 0); got != 6 {
		t.Errorf("MP(0) = %g, want 6", got)
	}
	if got := LP(p, 0); got != 0 {
		t.Errorf("LP(0) = %g, want 0", got)
	}
	// Worker 1: MP = 2, LP = 2.
	if MP(p, 1) != 2 || LP(p, 1) != 2 {
		t.Errorf("MP/LP(1) = %g/%g, want 2/2", MP(p, 1), LP(p, 1))
	}
	// Worker 2: MP = 0, LP = (5-1)+(5-3) = 6.
	if MP(p, 2) != 0 || LP(p, 2) != 6 {
		t.Errorf("MP/LP(2) = %g/%g, want 0/6", MP(p, 2), LP(p, 2))
	}
}

func TestIAU(t *testing.T) {
	p := []float64{1, 3, 5}
	prm := DefaultParams()
	// IAU_1 = 3 - 0.5/2*2 - 0.5/2*2 = 3 - 0.5 - 0.5 = 2.
	if got := IAU(prm, p, 1); math.Abs(got-2) > 1e-9 {
		t.Errorf("IAU(1) = %g, want 2", got)
	}
	// IAU_0 = 1 - 0.25*6 = -0.5.
	if got := IAU(prm, p, 0); math.Abs(got+0.5) > 1e-9 {
		t.Errorf("IAU(0) = %g, want -0.5", got)
	}
}

func TestIAUSingleWorker(t *testing.T) {
	if got := IAU(DefaultParams(), []float64{7}, 0); got != 7 {
		t.Errorf("single-worker IAU = %g, want raw payoff 7", got)
	}
}

func TestIAUEqualPayoffs(t *testing.T) {
	p := []float64{2, 2, 2, 2}
	for i := range p {
		if got := IAU(DefaultParams(), p, i); math.Abs(got-2) > 1e-9 {
			t.Errorf("equal payoffs: IAU(%d) = %g, want 2", i, got)
		}
	}
}

func TestAll(t *testing.T) {
	p := []float64{1, 3, 5}
	all := All(DefaultParams(), p)
	for i := range p {
		if all[i] != IAU(DefaultParams(), p, i) {
			t.Errorf("All[%d] mismatch", i)
		}
	}
}

// Property: IAU_i <= P_i always (penalties are non-negative), with equality
// iff all payoffs are equal or the weights are zero.
func TestIAUNeverExceedsPayoff(t *testing.T) {
	f := func(raw []uint8, a, b uint8) bool {
		if len(raw) < 2 {
			return true
		}
		p := make([]float64, len(raw))
		for i, v := range raw {
			p[i] = float64(v)
		}
		prm := Params{Alpha: float64(a%10) / 10, Beta: float64(b%10) / 10}
		for i := range p {
			if IAU(prm, p, i) > p[i]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the fairest distribution (all equal) maximizes Potential among
// mean-preserving spreads for alpha+beta >= 0.
func TestPotentialPrefersEquality(t *testing.T) {
	prm := DefaultParams()
	equal := []float64{2, 2, 2, 2}
	spread := []float64{0, 1, 3, 4} // same mean, unequal
	if Potential(prm, equal) <= Potential(prm, spread) {
		t.Errorf("Potential(equal)=%g should exceed Potential(spread)=%g",
			Potential(prm, equal), Potential(prm, spread))
	}
}

// The paper's Lemma 2 claims Phi = sum IAU is an exact potential. Because
// MP/LP couple the workers, a unilateral deviation also shifts the other
// workers' inequity terms, so the identity dU_i = dPhi holds only
// approximately. This test documents the empirically observed behaviour that
// the game package relies on: for alpha = beta = 0.5, the large majority of
// utility-improving unilateral deviations also raise Phi (the game package
// additionally caps iterations precisely because Phi is not an exact
// Lyapunov function).
func TestPotentialTracksDeviatorImprovement(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prm := DefaultParams()
	improvedBoth, improvedI := 0, 0
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(5)
		p := make([]float64, n)
		for j := range p {
			p[j] = rng.Float64() * 5
		}
		i := rng.Intn(n)
		q := append([]float64(nil), p...)
		q[i] = rng.Float64() * 5
		dU := IAU(prm, q, i) - IAU(prm, p, i)
		dPhi := Potential(prm, q) - Potential(prm, p)
		if dU > 1e-9 {
			improvedI++
			if dPhi > 1e-12 {
				improvedBoth++
			}
		}
	}
	if improvedI == 0 {
		t.Fatal("no improving deviations sampled")
	}
	// Empirically about 85% of improving deviations raise Phi at
	// alpha = beta = 0.5; require > 75% so regressions in the IAU
	// arithmetic are caught without overstating the (inexact) potential.
	if float64(improvedBoth) < 0.75*float64(improvedI) {
		t.Errorf("potential rose in only %d/%d improving deviations",
			improvedBoth, improvedI)
	}
}

func TestPriorityIAU(t *testing.T) {
	prm := DefaultParams()
	p := []float64{2, 4}
	// Equal priorities: must match plain IAU.
	for i := range p {
		got := PriorityIAU(prm, p, []float64{1, 1}, i)
		want := IAU(prm, p, i)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("equal priorities: PriorityIAU(%d) = %g, want %g", i, got, want)
		}
	}
	// Worker 1 has priority 2: normalized payoffs are equal (2, 2), so no
	// penalties apply.
	if got := PriorityIAU(prm, p, []float64{1, 2}, 1); math.Abs(got-4) > 1e-9 {
		t.Errorf("priority-normalized IAU = %g, want 4", got)
	}
	// Non-positive priorities fall back to 1.
	if got := PriorityIAU(prm, p, []float64{0, -1}, 0); math.Abs(got-IAU(prm, p, 0)) > 1e-9 {
		t.Errorf("bad priorities not defaulted: %g", got)
	}
	// Single worker.
	if got := PriorityIAU(prm, []float64{3}, []float64{1}, 0); got != 3 {
		t.Errorf("single-worker PriorityIAU = %g", got)
	}
}

// valuePool holds the payoffs BenchmarkIAUReference draws from, ties and
// zeros included.
var valuePool = []float64{0, 0, 0.5, 0.5, 1, 1.25, 1.25, 2, 2.75, 3, 3, 4.5}

func randomPayoffs(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = valuePool[rng.Intn(len(valuePool))]
	}
	return out
}

// TestPriorityIAUFallsBelowBeta is the counterexample behind the game
// package's ErrNonMonotoneIAU: a worker whose priority (0.25) is below beta
// (0.5) and who is the richest in normalized terms has IAU slope
// 1 - beta/priority = -1, so its utility falls as its payoff rises and the
// top available strategy is no longer its best response.
func TestPriorityIAUFallsBelowBeta(t *testing.T) {
	prm := DefaultParams()
	priorities := []float64{0.25, 1, 1, 1}
	lo := PriorityIAU(prm, []float64{1, 1, 1, 1}, priorities, 0)
	hi := PriorityIAU(prm, []float64{2, 1, 1, 1}, priorities, 0)
	if math.Abs(lo-(-0.5)) > 1e-12 || math.Abs(hi-(-1.5)) > 1e-12 {
		t.Fatalf("PriorityIAU at payoff 1, 2 = %g, %g; want -0.5, -1.5", lo, hi)
	}
}

// FuzzIAUMonotone pins the property FGT's best response rests on: inside
// the accepted domain — alpha >= -m and beta <= m, where m is the least
// effective priority, or 1 for the plain IAU — a worker's IAU never falls
// as its own payoff rises. Each worker of an arbitrary four-worker payoff
// vector is probed at lo < hi; the slack is a few ulps of the magnitudes
// the IAU sums.
func FuzzIAUMonotone(f *testing.F) {
	f.Add(0.0, 1.0, 1.0, 2.5, 0.5, 3.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0)
	f.Add(3.25, 0.0, 3.25, 0.125, -1.0, 3.25, 0.5, 0.5, 0.5, 1.5, 2.5, 3.5)
	f.Add(-1.5, 2.0, 0.0, 2.0, 2.0, 2.5, -1.0, 1.0, 1.0, 2.0, 0.0, -3.0)
	f.Fuzz(func(t *testing.T, a, b, c, d, lo, hi, alpha, beta, pr0, pr1, pr2, pr3 float64) {
		payoffs := []float64{a, b, c, d}
		priorities := []float64{pr0, pr1, pr2, pr3}
		for _, v := range []float64{a, b, c, d, lo, hi, alpha, beta, pr0, pr1, pr2, pr3} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				t.Skip()
			}
		}
		if math.Abs(alpha) > 1e3 || math.Abs(beta) > 1e3 || lo == hi {
			t.Skip()
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		m := math.Inf(1)
		for i, pr := range priorities {
			if pr <= 0 {
				pr = 1 // as NormalizedPayoff
			}
			if pr < 1e-3 || pr > 1e3 {
				t.Skip()
			}
			priorities[i] = pr
			m = math.Min(m, pr)
		}
		prm := Params{Alpha: alpha, Beta: beta}
		plain := alpha >= -1 && beta <= 1
		prio := alpha >= -m && beta <= m
		if !plain && !prio {
			t.Skip()
		}
		// The IAU sums terms of size |weight| * |normalized payoff|; its
		// rounding error is a few ulps of their total.
		var sum float64
		for _, p := range append([]float64{lo, hi}, payoffs...) {
			sum += math.Abs(p)
		}
		slack := 64 * 0x1p-52 * (1 + math.Abs(alpha) + math.Abs(beta)) * sum / math.Min(m, 1)
		for w := range payoffs {
			at := func(p float64, priority bool) float64 {
				scratch := append([]float64(nil), payoffs...)
				scratch[w] = p
				if priority {
					return PriorityIAU(prm, scratch, priorities, w)
				}
				return IAU(prm, scratch, w)
			}
			if plain && at(hi, false) < at(lo, false)-slack {
				t.Fatalf("worker %d: IAU(%g) = %g < IAU(%g) = %g at %+v",
					w, hi, at(hi, false), lo, at(lo, false), prm)
			}
			if prio && at(hi, true) < at(lo, true)-slack {
				t.Fatalf("worker %d: PriorityIAU(%g) = %g < PriorityIAU(%g) = %g at %+v, priorities %v",
					w, hi, at(hi, true), lo, at(lo, true), prm, priorities)
			}
		}
	})
}

func TestPriorityIAUBufAllocationFreeAndIdentical(t *testing.T) {
	prm := DefaultParams()
	payoffs := []float64{0, 1, 1, 2.75, 0.5, 3}
	priorities := []float64{1, 2, 0.5, 1, 4, 1}
	buf := make([]float64, len(payoffs))
	for i := range payoffs {
		got := PriorityIAUBuf(prm, payoffs, priorities, i, buf)
		want := PriorityIAU(prm, payoffs, priorities, i)
		if got != want {
			t.Fatalf("worker %d: PriorityIAUBuf = %g, PriorityIAU = %g (must be bit-identical)",
				i, got, want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		PriorityIAUBuf(prm, payoffs, priorities, 3, buf)
	})
	if allocs != 0 {
		t.Fatalf("PriorityIAUBuf allocated %v objects per run, want 0", allocs)
	}
}

// BenchmarkIAUReference is one O(W) IAU evaluation at W = 200, the unit of
// work FGT's best response and the Nash certificate spend per worker.
func BenchmarkIAUReference(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 200
	payoffs := randomPayoffs(rng, n)
	prm := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IAU(prm, payoffs, i%n)
	}
}
