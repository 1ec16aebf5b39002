package vdps

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fairtask/internal/dataset"
	"fairtask/internal/model"
)

// repairGM builds a deterministic Gaussian-mixture instance for repair tests.
func repairGM(t *testing.T, seed int64, tasks, workers, points int) *model.Instance {
	t.Helper()
	in, err := dataset.GenerateGM(dataset.GMConfig{
		Seed: seed, Tasks: tasks, Workers: workers, DeliveryPoints: points,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Vary worker speeds so the scaled-speed branches are exercised too.
	speeds := []float64{4, 5, 6}
	for w := range in.Workers {
		in.Workers[w].Speed = speeds[w%len(speeds)]
	}
	return in
}

// mutateExpiries shifts the expiry of every task at a deterministic subset of
// points — some up, some down — and returns the points whose earliest expiry
// actually changed, ascending. The instance is mutated in place.
func mutateExpiries(in *model.Instance, rng *rand.Rand) []int {
	var changed []int
	for p := range in.Points {
		if len(in.Points[p].Tasks) == 0 || rng.Intn(4) != 0 {
			continue
		}
		before := in.Points[p].EarliestExpiry()
		scale := 0.5 + rng.Float64() // [0.5, 1.5): both tighter and looser
		for i := range in.Points[p].Tasks {
			in.Points[p].Tasks[i].Expiry *= scale
		}
		if in.Points[p].EarliestExpiry() != before {
			changed = append(changed, p)
		}
	}
	return changed
}

// assertGeneratorsEqual compares every field the solvers read: the candidate
// table (points, masks, frontiers, rewards), the derived per-candidate caches
// and every worker's enumerated strategy space, all bitwise.
func assertGeneratorsEqual(t *testing.T, got, want *Generator) {
	t.Helper()
	gc, wc := got.Candidates(), want.Candidates()
	if len(gc) != len(wc) {
		t.Fatalf("candidate count %d, want %d", len(gc), len(wc))
	}
	for ci := range gc {
		if !reflect.DeepEqual(gc[ci].Points, wc[ci].Points) {
			t.Fatalf("candidate %d points %v, want %v", ci, gc[ci].Points, wc[ci].Points)
		}
		if !reflect.DeepEqual(gc[ci].Frontier, wc[ci].Frontier) {
			t.Fatalf("candidate %d (%v) frontier diverged:\ngot  %+v\nwant %+v",
				ci, gc[ci].Points, gc[ci].Frontier, wc[ci].Frontier)
		}
		if gc[ci].Reward != wc[ci].Reward {
			t.Fatalf("candidate %d reward %v, want %v", ci, gc[ci].Reward, wc[ci].Reward)
		}
		if got.maxSlack[ci] != want.maxSlack[ci] || got.setSize[ci] != want.setSize[ci] {
			t.Fatalf("candidate %d caches (%v,%d), want (%v,%d)",
				ci, got.maxSlack[ci], got.setSize[ci], want.maxSlack[ci], want.setSize[ci])
		}
	}
	var sc1, sc2 StrategyScratch
	for w := range want.Instance().Workers {
		gs, ws := got.WorkerStrategies(w, &sc1), want.WorkerStrategies(w, &sc2)
		if !reflect.DeepEqual(gs, ws) {
			t.Fatalf("worker %d strategies diverged:\ngot  %+v\nwant %+v", w, gs, ws)
		}
	}
}

// TestRepairExpiriesMatchesGenerate is the unit-level pin of incremental
// candidate regeneration: after moving a subset of points' earliest expiries,
// RepairExpiries must leave the generator bit-identical — candidates,
// frontiers, caches and every worker's strategy space — to a full Generate on
// the mutated instance, across epsilon regimes and with the grid index
// disabled.
func TestRepairExpiriesMatchesGenerate(t *testing.T) {
	cases := []struct {
		name    string
		opt     Options
		lattice bool // the tie-heavy latticeInstance instead of GM
	}{
		{"eps", Options{Epsilon: 1.5}, false},
		{"eps-noindex", Options{Epsilon: 1.5, DisableIndex: true}, false},
		{"dense", Options{Epsilon: 0, MaxSize: 3}, false},
		{"lattice-ties", Options{Epsilon: 2}, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				in := repairGM(t, seed, 60, 8, 24)
				if tc.lattice {
					in = latticeInstance()
				}
				g, err := Generate(in, tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				before := append([]Candidate(nil), g.Candidates()...)

				mutated := in.Clone()
				rng := rand.New(rand.NewSource(seed * 31))
				pts := mutateExpiries(mutated, rng)
				if len(pts) == 0 {
					t.Fatalf("seed %d: mutation changed no expiries", seed)
				}
				g.Rebind(mutated)
				rep, err := g.RepairExpiries(context.Background(), pts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Generate(mutated, tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				assertGeneratorsEqual(t, g, want)

				// Remap/Fresh must describe the surgery exactly: -1 in Remap
				// marks exactly the candidates containing a changed point.
				if len(rep.Remap) != len(before) {
					t.Fatalf("remap length %d, want %d", len(rep.Remap), len(before))
				}
				changed := map[int]bool{}
				for _, p := range pts {
					changed[p] = true
				}
				dropped := 0
				for ci := range before {
					hasChanged := false
					for _, p := range before[ci].Points {
						if changed[p] {
							hasChanged = true
						}
					}
					ni := rep.Remap[ci]
					if ni < 0 {
						if !hasChanged {
							t.Fatalf("candidate %d remapped to -1 but contains no changed point", ci)
						}
						dropped++
						continue
					}
					if hasChanged {
						t.Fatalf("candidate %d contains a changed point but was retained", ci)
					}
					if !reflect.DeepEqual(before[ci].Points, g.Candidates()[ni].Points) {
						t.Fatalf("retained candidate %d moved to %d with different points", ci, ni)
					}
				}
				fresh := map[int]bool{}
				for _, ni := range rep.Fresh {
					fresh[ni] = true
					hit := false
					for _, p := range g.Candidates()[ni].Points {
						for _, q := range pts {
							if p == q {
								hit = true
							}
						}
					}
					if !hit {
						t.Fatalf("fresh candidate %d contains no changed point", ni)
					}
				}
				if got := len(before) - dropped + len(rep.Fresh); got != len(g.Candidates()) {
					t.Fatalf("retained+fresh = %d, table has %d", got, len(g.Candidates()))
				}
			}
		})
	}
}

// TestRepairExpiriesNoChange pins the identity fast path: an empty changed
// set returns the identity remap and touches nothing.
func TestRepairExpiriesNoChange(t *testing.T) {
	in := repairGM(t, 9, 40, 6, 18)
	g, err := Generate(in, Options{Epsilon: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	n := len(g.Candidates())
	rep, err := g.RepairExpiries(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Fresh) != 0 || len(rep.Remap) != n {
		t.Fatalf("identity repair reported surgery: %+v", rep)
	}
	for i, ni := range rep.Remap { // identity: no -1, so nothing dropped
		if ni != i {
			t.Fatalf("remap[%d] = %d, want identity", i, ni)
		}
	}
}

// TestRepairExpiriesErrorLeavesTable pins the transactional contract: a
// repair that fails (canceled context) leaves the candidate table untouched.
func TestRepairExpiriesErrorLeavesTable(t *testing.T) {
	in := repairGM(t, 10, 60, 8, 24)
	g, err := Generate(in, Options{Epsilon: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]Candidate(nil), g.Candidates()...)
	mutated := in.Clone()
	pts := mutateExpiries(mutated, rand.New(rand.NewSource(77)))
	if len(pts) == 0 {
		t.Fatal("mutation changed no expiries")
	}
	g.Rebind(mutated)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.RepairExpiries(ctx, pts); err == nil {
		t.Fatal("canceled repair did not fail")
	}
	if !reflect.DeepEqual(before, g.Candidates()) {
		t.Fatal("failed repair mutated the candidate table")
	}
}

// TestRepairStrategyPayoffsMatchesWorkerStrategies pins the in-place strategy
// repair: after a reward-only change and RepairRewards, re-keying a worker's
// cached list in place must be bit-identical — values and permutation — to a
// fresh WorkerStrategies enumeration.
func TestRepairStrategyPayoffsMatchesWorkerStrategies(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		in := repairGM(t, seed, 60, 8, 24)
		g, err := Generate(in, Options{Epsilon: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		var sc StrategyScratch
		cached := make([][]StrategyRef, len(in.Workers))
		for w := range in.Workers {
			cached[w] = append([]StrategyRef(nil), g.WorkerStrategies(w, &sc)...)
		}

		// Re-price every task at a deterministic subset of points.
		mutated := in.Clone()
		rng := rand.New(rand.NewSource(seed * 13))
		var pts []int
		for p := range mutated.Points {
			if len(mutated.Points[p].Tasks) == 0 || rng.Intn(3) != 0 {
				continue
			}
			for i := range mutated.Points[p].Tasks {
				mutated.Points[p].Tasks[i].Reward *= 0.25 + 2*rng.Float64()
			}
			pts = append(pts, p)
		}
		if len(pts) == 0 {
			t.Fatalf("seed %d: no points re-priced", seed)
		}
		g.Rebind(mutated)
		changed := g.RepairRewards(pts)
		if len(changed) == 0 {
			t.Fatalf("seed %d: reward repair changed no candidates", seed)
		}

		var wsc StrategyScratch
		for w := range mutated.Workers {
			g.RepairStrategyPayoffs(w, cached[w])
			want := g.WorkerStrategies(w, &wsc)
			if !reflect.DeepEqual(cached[w], want) {
				t.Fatalf("seed %d worker %d: repaired list diverged:\ngot  %+v\nwant %+v",
					seed, w, cached[w], want)
			}
		}
	}
}

// TestFeasibleForMatchesEnumeration pins FeasibleFor against the ground
// truth: a candidate is feasible for a worker exactly when WorkerStrategies
// includes it.
func TestFeasibleForMatchesEnumeration(t *testing.T) {
	in := repairGM(t, 5, 60, 8, 24)
	g, err := Generate(in, Options{Epsilon: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	var sc StrategyScratch
	for w := range in.Workers {
		included := map[int32]bool{}
		for _, s := range g.WorkerStrategies(w, &sc) {
			included[s.Cand] = true
		}
		for ci := range g.Candidates() {
			if got, want := g.FeasibleFor(w, ci), included[int32(ci)]; got != want {
				t.Fatalf("worker %d candidate %d: FeasibleFor %v, enumeration %v",
					w, ci, got, want)
			}
		}
	}
}

// TestRepairExpiriesEmptyPoint covers the degenerate mutation the streaming
// engine produces when a point's last task expires: the point's earliest
// expiry jumps to +Inf, its candidates must drop to whatever remains
// feasible, and the repaired table must still match a full Generate.
func TestRepairExpiriesEmptyPoint(t *testing.T) {
	in := repairGM(t, 6, 60, 8, 24)
	g, err := Generate(in, Options{Epsilon: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	target := -1
	for p := range in.Points {
		if len(in.Points[p].Tasks) > 0 {
			target = p
			break
		}
	}
	if target < 0 {
		t.Fatal("instance has no tasks")
	}
	mutated := in.Clone()
	mutated.Points[target].Tasks = nil
	if mutated.Points[target].EarliestExpiry() == in.Points[target].EarliestExpiry() {
		t.Fatal("draining the point did not move its earliest expiry")
	}
	g.Rebind(mutated)
	if _, err := g.RepairExpiries(context.Background(), []int{target}); err != nil {
		t.Fatal(err)
	}
	want, err := Generate(mutated, Options{Epsilon: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	assertGeneratorsEqual(t, g, want)
	if math.IsInf(mutated.Points[target].EarliestExpiry(), 1) {
		// A taskless point is trivially reachable: its singletons survive
		// with infinite slack rather than disappearing.
		found := false
		for _, c := range g.Candidates() {
			if len(c.Points) == 1 && c.Points[0] == target {
				found = true
			}
		}
		if !found {
			t.Fatal("drained point lost its singleton candidate")
		}
	}
}
