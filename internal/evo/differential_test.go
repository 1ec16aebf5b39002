package evo

import (
	"context"
	"testing"

	"fairtask/internal/game"
)

// sameResult requires bit-identical results from the allocation-free IEGT
// and the retained reference implementation.
func sameResult(t *testing.T, label string, got, want *game.Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged || got.Switches != want.Switches {
		t.Fatalf("%s: (iterations, converged, switches) = (%d, %v, %d), reference (%d, %v, %d)",
			label, got.Iterations, got.Converged, got.Switches, want.Iterations, want.Converged, want.Switches)
	}
	for w := range want.Assignment.Routes {
		if !routesEqual(got.Assignment.Routes[w], want.Assignment.Routes[w]) {
			t.Fatalf("%s: worker %d route %v, reference %v",
				label, w, got.Assignment.Routes[w], want.Assignment.Routes[w])
		}
	}
	if got.Summary.Difference != want.Summary.Difference ||
		got.Summary.Average != want.Summary.Average ||
		got.Summary.Total != want.Summary.Total {
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

// TestIEGTMatchesReference pins the optimized IEGT bit-exactly against the
// retained pre-index implementation: the allocation-free population scans
// and scratch-buffer strategy selection must not change a single rng draw,
// switch, iteration count, or traced statistic.
func TestIEGTMatchesReference(t *testing.T) {
	instances := map[string]int64{"a": 1, "b": 5, "tight": 9}
	variants := map[string]Options{
		"default":   {},
		"trace":     {Trace: true},
		"mutation":  {MutationRate: 0.3, Trace: true},
		"tolerance": {Tolerance: 0.5},
	}
	for iname, iseed := range instances {
		in := gridInstance(10, 5, 2, 100, iseed)
		if iname == "tight" {
			in = gridInstance(8, 6, 2, 6, iseed)
		}
		g := mustGen(t, in)
		for vname, opt := range variants {
			for seed := int64(0); seed < 4; seed++ {
				opt := opt
				opt.Seed = seed
				got, err := IEGT(context.Background(), g, opt)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ReferenceIEGT(context.Background(), g, opt)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, iname+"/"+vname, got, want)
			}
		}
	}
}
