package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSumMean(t *testing.T) {
	if Sum(nil) != 0 || Mean(nil) != 0 {
		t.Error("empty slice aggregates should be 0")
	}
	xs := []float64{1, 2, 3, 4}
	if Sum(xs) != 10 {
		t.Errorf("Sum = %g", Sum(xs))
	}
	if Mean(xs) != 2.5 {
		t.Errorf("Mean = %g", Mean(xs))
	}
}

func TestStdDev(t *testing.T) {
	if StdDev(nil) != 0 || StdDev([]float64{5}) != 0 {
		t.Error("degenerate StdDev should be 0")
	}
	// Population stddev of {2, 4, 4, 4, 5, 5, 7, 9} is 2.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := StdDev(xs); math.Abs(got-2) > 1e-9 {
		t.Errorf("StdDev = %g, want 2", got)
	}
	if StdDev([]float64{3, 3, 3}) != 0 {
		t.Error("constant slice StdDev should be 0")
	}
}

func TestMinMax(t *testing.T) {
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be infinities")
	}
	xs := []float64{3, -1, 4}
	if Min(xs) != -1 || Max(xs) != 4 {
		t.Errorf("Min/Max = %g/%g", Min(xs), Max(xs))
	}
}

// Property: Min <= Mean <= Max.
func TestOrderingProperties(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		lo, hi := Min(xs), Max(xs)
		m := Mean(xs)
		const eps = 1e-9
		return lo-eps <= m && m <= hi+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
