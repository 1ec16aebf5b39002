package game_test

import (
	"context"
	"testing"

	"fairtask/internal/audit"
	"fairtask/internal/dataset"
	"fairtask/internal/evo"
	"fairtask/internal/game"
	"fairtask/internal/platform"
	"fairtask/internal/vdps"
)

// TestServedIEGTNeverCounts checks that list lengths are counted only for
// a best response that reads them: an audited IEGT solve through
// platform.SolveInstance, which hands the solver an on-demand state, builds
// every list before its first best response and never counts. An FGT solve
// of the same center, whose first best response finds no list, counts
// once.
func TestServedIEGTNeverCounts(t *testing.T) {
	p, err := dataset.GenerateSYN(dataset.SYNConfig{
		Seed: 1, Centers: 32, Tasks: 3200, Workers: 320, DeliveryPoints: 640,
	})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	defer game.SetCountStrategies(func(g *vdps.Generator) []int {
		calls++
		return g.StrategyCounts()
	})()
	opt := platform.Options{VDPS: vdps.Options{Epsilon: 2}, Audit: &audit.Options{}}
	for ci := range p.Instances {
		in := &p.Instances[ci]
		if _, _, err := platform.SolveInstance(context.Background(), in, evo.Options{Seed: 1}, opt); err != nil {
			t.Fatal(err)
		}
		if calls != 0 {
			t.Fatalf("center %d: IEGT solve counted the lists %d times", ci, calls)
		}
	}
	if _, _, err := platform.SolveInstance(context.Background(), &p.Instances[0], game.Options{Seed: 1}, opt); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("FGT solve counted the lists %d times, want once", calls)
	}
}
