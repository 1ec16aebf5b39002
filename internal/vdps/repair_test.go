package vdps

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// assertGeneratorsEqual compares every field the solvers read with a fresh
// generator's. Each live candidate is matched to want's candidate with the
// same point set and compared bit for bit: points, mask, frontier
// (sequences included), reward, and the flat maxSlack, setSize and fold
// entries. Every tombstone must be inert — no points, mask or frontier, a
// zero reward, maxSlack -Inf, setSize 0 and fold 0 — and the live count must equal
// want's table and got's Stats. Every worker's enumerated strategy space
// must then match want's (see assertListMatches).
func assertGeneratorsEqual(t *testing.T, got, want *Generator) {
	t.Helper()
	byPoints := make(map[string]int, len(want.candidates))
	for ci := range want.candidates {
		byPoints[fmt.Sprint(want.candidates[ci].Points)] = ci
	}
	live := 0
	for ci := range got.candidates {
		c := &got.candidates[ci]
		if !c.Live() {
			if c.Points != nil || c.Mask != nil || c.Frontier != nil || c.Reward != 0 ||
				!math.IsInf(got.maxSlack[ci], -1) || got.setSize[ci] != 0 || got.fold[ci] != 0 {
				t.Fatalf("tombstone %d is not inert: %+v, caches (%v,%d,%x)",
					ci, *c, got.maxSlack[ci], got.setSize[ci], got.fold[ci])
			}
			continue
		}
		live++
		wi, ok := byPoints[fmt.Sprint(c.Points)]
		if !ok {
			t.Fatalf("candidate %d %v is not in the fresh table", ci, c.Points)
		}
		wc := &want.candidates[wi]
		if !reflect.DeepEqual(c.Points, wc.Points) || !reflect.DeepEqual(c.Mask, wc.Mask) {
			t.Fatalf("candidate %d (%v, mask %v), fresh %d (%v, mask %v)", ci, c.Points, c.Mask, wi, wc.Points, wc.Mask)
		}
		if !reflect.DeepEqual(c.Frontier, wc.Frontier) {
			t.Fatalf("candidate %d (%v) frontier diverged:\ngot  %+v\nwant %+v", ci, c.Points, c.Frontier, wc.Frontier)
		}
		if math.Float64bits(c.Reward) != math.Float64bits(wc.Reward) {
			t.Fatalf("candidate %d (%v) reward %v, want %v", ci, c.Points, c.Reward, wc.Reward)
		}
		if math.Float64bits(got.maxSlack[ci]) != math.Float64bits(want.maxSlack[wi]) ||
			got.setSize[ci] != want.setSize[wi] || got.fold[ci] != want.fold[wi] {
			t.Fatalf("candidate %d (%v) caches (%v,%d,%x), want (%v,%d,%x)", ci, c.Points,
				got.maxSlack[ci], got.setSize[ci], got.fold[ci], want.maxSlack[wi], want.setSize[wi], want.fold[wi])
		}
	}
	if live != len(want.candidates) || got.Stats().Candidates != live {
		t.Fatalf("%d live candidates (Stats %d), fresh table %d", live, got.Stats().Candidates, len(want.candidates))
	}
	var sc1, sc2 StrategyScratch
	for w := range want.Instance().Workers {
		assertListMatches(t, fmt.Sprintf("worker %d", w), got, got.WorkerStrategies(w, &sc1), want, want.WorkerStrategies(w, &sc2))
	}
}

// assertListMatches requires list, a strategy list over got's table, to map
// one-to-one by point set onto wantList, the same worker's list over a fresh
// generator want: sorted by each generator's ComparePayoff, the two agree
// entry by entry on point set, frontier entry, sequence and payoff bits. The
// sort compares point sets on ties, so this also pins that the tie rule
// ranks both tables alike. Neither input is reordered.
func assertListMatches(t *testing.T, label string, got *Generator, list []StrategyRef, want *Generator, wantList []StrategyRef) {
	t.Helper()
	gs, ws := slices.Clone(list), slices.Clone(wantList)
	slices.SortFunc(gs, got.ComparePayoff)
	slices.SortFunc(ws, want.ComparePayoff)
	if len(gs) != len(ws) {
		t.Fatalf("%s: %d strategies, fresh %d", label, len(gs), len(ws))
	}
	for i := range gs {
		g, w := gs[i], ws[i]
		if !slices.Equal(got.RefPoints(g), want.RefPoints(w)) || g.Entry != w.Entry ||
			!slices.Equal(got.RefSeq(g), want.RefSeq(w)) || math.Float64bits(g.Payoff) != math.Float64bits(w.Payoff) {
			t.Fatalf("%s entry %d: (points %v, entry %d, seq %v, payoff %v), fresh (points %v, entry %d, seq %v, payoff %v)",
				label, i, got.RefPoints(g), g.Entry, got.RefSeq(g), g.Payoff,
				want.RefPoints(w), w.Entry, want.RefSeq(w), w.Payoff)
		}
	}
}

// holdsAny reports whether the candidate's set holds one of the points.
func holdsAny(c *Candidate, points []int) bool {
	return slices.ContainsFunc(c.Points, func(p int) bool { return slices.Contains(points, p) })
}

// TestRepairExpiriesMatchesGenerate is the unit-level pin of incremental
// candidate regeneration: after moving a subset of points' earliest expiries,
// RepairExpiries must leave the generator's live table bit-identical —
// candidates, frontiers, caches and every worker's strategy space — to a
// full Generate on the mutated instance, matched by point set, across
// epsilon regimes and with the grid index disabled. The tombstones must be
// exactly the candidates that held a changed point, every retained
// candidate must keep its index unless the repair compacted the table, and
// every appended one must hold a changed point. Each worker's list, spliced
// through the repair, must equal WorkerStrategies on the repaired generator
// and map onto the fresh generator's list by point set.
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
				before := slices.Clone(g.Candidates())
				var sc StrategyScratch
				lists := make([][]StrategyRef, len(in.Workers))
				for w := range lists {
					lists[w] = g.WorkerStrategies(w, &sc)
				}

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

				dropped := 0
				for ci := range before {
					ni := rep.index(g, int32(ci))
					if ni < 0 {
						if !holdsAny(&before[ci], pts) {
							t.Fatalf("candidate %d %v dropped but holds no changed point", ci, before[ci].Points)
						}
						dropped++
						continue
					}
					if holdsAny(&before[ci], pts) {
						t.Fatalf("candidate %d %v holds a changed point but was retained", ci, before[ci].Points)
					}
					if rep.remap == nil && int(ni) != ci {
						t.Fatalf("retained candidate %d moved to %d without a compaction", ci, ni)
					}
					if !reflect.DeepEqual(before[ci].Points, g.Candidates()[ni].Points) {
						t.Fatalf("retained candidate %d moved to %d with different points", ci, ni)
					}
				}
				if rep.remap == nil {
					for ci := range before {
						if live := g.Candidates()[ci].Live(); live == holdsAny(&before[ci], pts) {
							t.Fatalf("candidate %d %v: live %v after the repair", ci, before[ci].Points, live)
						}
					}
				}
				if dropped != rep.dropped || rep.end != len(g.Candidates()) {
					t.Fatalf("repair reports %d dropped and end %d; recount %d, table %d",
						rep.dropped, rep.end, dropped, len(g.Candidates()))
				}
				for ni := rep.fresh; ni < rep.end; ni++ {
					if !holdsAny(&g.Candidates()[ni], pts) {
						t.Fatalf("appended candidate %d %v holds no changed point", ni, g.Candidates()[ni].Points)
					}
				}
				if got := len(before) - dropped + rep.end - rep.fresh; got != g.Stats().Candidates {
					t.Fatalf("retained+appended = %d, %d live", got, g.Stats().Candidates)
				}

				var wsc StrategyScratch
				for w := range lists {
					list, _ := g.SpliceStrategies(w, lists[w], rep, &sc)
					if ws := g.WorkerStrategies(w, &wsc); !reflect.DeepEqual(list, ws) {
						t.Fatalf("seed %d worker %d: spliced list diverged:\ngot  %+v\nwant %+v", seed, w, list, ws)
					}
					assertListMatches(t, fmt.Sprintf("seed %d worker %d", seed, w), g, list, want, want.WorkerStrategies(w, &wsc))
				}
			}
		})
	}
}

// TestRepairExpiriesNoChange pins the identity fast path: an empty changed
// set returns the zero repair and touches nothing, and splicing a list
// through it leaves the list as it was.
func TestRepairExpiriesNoChange(t *testing.T) {
	in := repairGM(t, 9, 40, 6, 18)
	g, err := Generate(in, Options{Epsilon: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]Candidate(nil), g.Candidates()...)
	rep, err := g.RepairExpiries(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, ExpiryRepair{}) {
		t.Fatalf("identity repair reported surgery: %+v", rep)
	}
	if !reflect.DeepEqual(before, g.Candidates()) {
		t.Fatal("identity repair mutated the candidate table")
	}
	var sc StrategyScratch
	for w := range in.Workers {
		list := g.WorkerStrategies(w, &sc)
		want := slices.Clone(list)
		got, spliced := g.SpliceStrategies(w, list, rep, &sc)
		if spliced || !reflect.DeepEqual(got, want) {
			t.Fatalf("worker %d: identity splice reported %v, list %+v, want %+v", w, spliced, got, want)
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

// rewardMutations are reward-only instance edits that leave every point's
// earliest expiry where it was, so RepairRewards alone must bring a
// generator up to date. Each mutates in in place and returns the points it
// touched.
var rewardMutations = []struct {
	name  string
	apply func(in *model.Instance, rng *rand.Rand) []int
}{
	{"scale", func(in *model.Instance, rng *rand.Rand) []int {
		var pts []int
		for p := range in.Points {
			if len(in.Points[p].Tasks) == 0 || rng.Intn(3) != 0 {
				continue
			}
			for i := range in.Points[p].Tasks {
				in.Points[p].Tasks[i].Reward *= 0.25 + 2*rng.Float64()
			}
			pts = append(pts, p)
		}
		return pts
	}},
	{"late-arrival", func(in *model.Instance, rng *rand.Rand) []int {
		id := 0
		for p := range in.Points {
			for _, tk := range in.Points[p].Tasks {
				id = max(id, tk.ID+1)
			}
		}
		p := rng.Intn(len(in.Points))
		for len(in.Points[p].Tasks) == 0 {
			p = (p + 1) % len(in.Points)
		}
		in.Points[p].Tasks = append(in.Points[p].Tasks, model.Task{
			ID: id, Point: p, Expiry: in.Points[p].EarliestExpiry() + 0.5, Reward: 0.5 + rng.Float64(),
		})
		return []int{p}
	}},
	{"removal", func(in *model.Instance, rng *rand.Rand) []int {
		start := rng.Intn(len(in.Points))
		for k := range in.Points {
			p := (start + k) % len(in.Points)
			tasks := in.Points[p].Tasks
			e := in.Points[p].EarliestExpiry()
			atEarliest := 0
			for _, tk := range tasks {
				if tk.Expiry == e {
					atEarliest++
				}
			}
			for i, tk := range tasks {
				if tk.Expiry != e || atEarliest > 1 {
					in.Points[p].Tasks = append(tasks[:i:i], tasks[i+1:]...)
					return []int{p}
				}
			}
		}
		return nil // no task can leave without moving an earliest expiry
	}},
	{"same-price", func(in *model.Instance, rng *rand.Rand) []int {
		// Every task keeps its reward: the point is reported, nothing changed.
		return []int{rng.Intn(len(in.Points))}
	}},
}

// TestRepairRewardsMatchesGenerate is the unit-level pin of the reward
// repair: after each reward-only mutation, and after all of them at once,
// RepairRewards must return exactly the candidates whose Reward bits
// changed, strictly ascending, and leave every candidate's Reward bit-equal
// to a fresh Generate of the mutated instance. The 80-point instance makes
// candidates' trimmed one-word masks meet a two-word touched set.
func TestRepairRewardsMatchesGenerate(t *testing.T) {
	type instance struct {
		name string
		in   *model.Instance
	}
	var instances []instance
	for seed := int64(1); seed <= 4; seed++ {
		instances = append(instances, instance{fmt.Sprintf("gm-%d", seed), repairGM(t, seed, 60, 8, 24)})
	}
	instances = append(instances, instance{"gm-80pt", repairGM(t, 5, 200, 8, 80)})
	opt := Options{Epsilon: 1.5}
	wideMet := false
	for ii, inst := range instances {
		for mi := 0; mi <= len(rewardMutations); mi++ {
			name := "all"
			if mi < len(rewardMutations) {
				name = rewardMutations[mi].name
			}
			t.Run(inst.name+"/"+name, func(t *testing.T) {
				g, err := Generate(inst.in, opt)
				if err != nil {
					t.Fatal(err)
				}
				before := make([]float64, len(g.Candidates()))
				for ci, c := range g.Candidates() {
					before[ci] = c.Reward
				}
				mutated := inst.in.Clone()
				rng := rand.New(rand.NewSource(int64(100*ii + mi)))
				var pts []int
				for k, m := range rewardMutations {
					if k == mi || mi == len(rewardMutations) {
						pts = append(pts, m.apply(mutated, rng)...)
					}
				}
				if len(pts) == 0 {
					t.Fatal("mutation touched no point")
				}
				for p := range mutated.Points {
					if mutated.Points[p].EarliestExpiry() != inst.in.Points[p].EarliestExpiry() {
						t.Fatalf("mutation moved point %d's earliest expiry", p)
					}
				}

				g.Rebind(mutated)
				got := g.RepairRewards(pts)
				want, err := Generate(mutated, opt)
				if err != nil {
					t.Fatal(err)
				}
				var changed []int
				for ci, c := range g.Candidates() {
					if math.Float64bits(c.Reward) != math.Float64bits(before[ci]) {
						changed = append(changed, ci)
					}
					if math.Float64bits(c.Reward) != math.Float64bits(want.Candidates()[ci].Reward) {
						t.Fatalf("candidate %d reward %v, want %v", ci, c.Reward, want.Candidates()[ci].Reward)
					}
				}
				for i := 1; i < len(got); i++ {
					if got[i] <= got[i-1] {
						t.Fatalf("returned indices not strictly ascending at %d: %v", i, got[i-1:i+1])
					}
				}
				if !slices.Equal(got, changed) {
					t.Fatalf("returned %d candidates %v, want the %d whose reward bits changed %v",
						len(got), got, len(changed), changed)
				}
				assertGeneratorsEqual(t, g, want)

				// A touched point at 64 or above makes the touched set two
				// words long; a re-summed candidate with a one-word mask met it.
				if slices.Max(pts) >= 64 {
					for _, ci := range got {
						if len(g.Candidates()[ci].Mask) == 1 {
							wideMet = true
						}
					}
				}
			})
		}
	}
	if !wideMet {
		t.Fatal("no one-word mask met a two-word touched set")
	}
}

// TestRepairStrategyPayoffsMatchesWorkerStrategies pins the in-place strategy
// repair: after a reward-only change and RepairRewards, repairing a worker's
// cached list under the mask of re-priced candidates must be bit-identical —
// values and permutation — to a fresh WorkerStrategies enumeration. The
// repair reports true iff the list holds a marked candidate, and every
// unmarked entry keeps its pre-repair payoff bits. Each seed re-prices a
// subset of points, then a single point, which leaves some lists unmarked.
func TestRepairStrategyPayoffsMatchesWorkerStrategies(t *testing.T) {
	unmarked := 0 // non-empty lists the repair reported untouched
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

		mutated := in.Clone()
		rng := rand.New(rand.NewSource(seed * 13))
		for round := 0; round < 2; round++ {
			// Re-price every task at a deterministic subset of points: about
			// a third of them, then the first point that has tasks.
			var pts []int
			for p := range mutated.Points {
				if len(mutated.Points[p].Tasks) == 0 || (round == 0 && rng.Intn(3) != 0) {
					continue
				}
				for i := range mutated.Points[p].Tasks {
					mutated.Points[p].Tasks[i].Reward *= 0.25 + 2*rng.Float64()
				}
				pts = append(pts, p)
				if round == 1 {
					break
				}
			}
			if len(pts) == 0 {
				t.Fatalf("seed %d round %d: no points re-priced", seed, round)
			}
			g.Rebind(mutated)
			changed := g.RepairRewards(pts)
			if len(changed) == 0 {
				t.Fatalf("seed %d round %d: reward repair changed no candidates", seed, round)
			}
			repriced := make([]bool, len(g.Candidates()))
			for _, ci := range changed {
				repriced[ci] = true
			}

			var wsc StrategyScratch
			for w := range mutated.Workers {
				pre := slices.Clone(cached[w])
				marked := slices.ContainsFunc(pre, func(r StrategyRef) bool { return repriced[r.Cand] })
				hit := g.RepairStrategyPayoffs(w, cached[w], repriced)
				if hit != marked {
					t.Fatalf("seed %d round %d worker %d: repair reported %v, list holds a re-priced candidate: %v",
						seed, round, w, hit, marked)
				}
				if !hit && len(pre) > 0 {
					unmarked++
				}
				for i, r := range pre {
					if !repriced[r.Cand] && math.Float64bits(cached[w][i].Payoff) != math.Float64bits(r.Payoff) {
						t.Fatalf("seed %d round %d worker %d: unmarked entry %d (candidate %d) payoff %v, was %v",
							seed, round, w, i, r.Cand, cached[w][i].Payoff, r.Payoff)
					}
				}
				want := g.WorkerStrategies(w, &wsc)
				if !reflect.DeepEqual(cached[w], want) {
					t.Fatalf("seed %d round %d worker %d: repaired list diverged:\ngot  %+v\nwant %+v",
						seed, round, w, cached[w], want)
				}
			}
		}
	}
	if unmarked == 0 {
		t.Fatal("every non-empty list held a re-priced candidate; the unmarked case went untested")
	}
}

// TestFeasibleForMatchesEnumeration pins the per-candidate rule against the
// ground truth: for every worker and candidate, strategy returns exactly the
// StrategyRef WorkerStrategies includes for that candidate — payoff bits and
// frontier entry — and false when it includes none. repairGM's mixed speeds
// cover both the slack test and the scaled-speed re-check.
func TestFeasibleForMatchesEnumeration(t *testing.T) {
	in := repairGM(t, 5, 60, 8, 24)
	g, err := Generate(in, Options{Epsilon: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	var sc StrategyScratch
	for w := range in.Workers {
		included := map[int32]StrategyRef{}
		for _, s := range g.WorkerStrategies(w, &sc) {
			included[s.Cand] = s
		}
		r := g.ruleFor(w)
		for ci := range g.Candidates() {
			got, ok := g.strategy(r, ci)
			want, inc := included[int32(ci)]
			if ok != inc || got.Cand != want.Cand || got.Entry != want.Entry ||
				math.Float64bits(got.Payoff) != math.Float64bits(want.Payoff) {
				t.Fatalf("worker %d candidate %d: rule %+v (%v), enumeration %+v (%v)",
					w, ci, got, ok, want, inc)
			}
		}
	}
}

// TestRepairExpiriesChainedMatchesGenerate chains expiry repairs on one
// generator, so retained candidates come from earlier repairs, the table
// piles up tombstones and crosses the compaction rule. After every step the
// live table must equal a fresh Generate of the mutated instance bit for
// bit, matched by point set; every worker's list, spliced through each step
// and, on steps that also re-price, repaired with RepairStrategyPayoffs,
// must equal WorkerStrategies on the repaired generator and map onto the
// fresh generator's list by point set. The candidates dropped must be
// exactly those that held a changed point. The byte accounting must match a
// recount — live candidates' bytes, and the bytes dropped since the last
// compaction — keep table and slabs within twice the live bytes and
// compact exactly when the dropped bytes exceed the live ones or the table
// is full and holds at least half as many tombstones as live candidates;
// outside a compaction a retained candidate keeps its index and its slab.
// Each case must compact at least twice, and the chain must contain splices
// of every kind: a list kept whole, one that only gains regenerated
// candidates (every fourth step loosens one point's deadlines, which
// workers that could not reach it in time now may) and one that loses
// candidates.
func TestRepairExpiriesChainedMatchesGenerate(t *testing.T) {
	cases := []struct {
		name string
		in   *model.Instance
		opt  Options
		seed int64
	}{
		{"gm", repairGM(t, 3, 60, 8, 24), Options{Epsilon: 1.5}, 41},
		{"lattice-ties", latticeInstance(), Options{Epsilon: 2}, 43},
	}
	const steps = 24
	var whole, gained, lost int // splices by kind, over both cases
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.in
			g, err := Generate(in, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			var sc, wsc StrategyScratch
			lists := make([][]StrategyRef, len(in.Workers))
			for w := range lists {
				lists[w] = g.WorkerStrategies(w, &sc)
			}
			rng := rand.New(rand.NewSource(tc.seed))
			stale := 0 // bytes dropped since the last compaction, counted here
			compacted, kept := 0, 0
			for step := 0; step < steps; step++ {
				before := slices.Clone(g.Candidates())
				capBefore := cap(g.Candidates())
				mutated := in.Clone()
				var pts []int
				if step%4 == 3 {
					p := rng.Intn(len(mutated.Points))
					for len(mutated.Points[p].Tasks) == 0 {
						p = (p + 1) % len(mutated.Points)
					}
					for i := range mutated.Points[p].Tasks {
						mutated.Points[p].Tasks[i].Expiry *= 2
					}
					pts = []int{p}
				} else {
					pts = mutateExpiries(mutated, rng)
				}
				var rewardPts []int
				if step%3 == 2 {
					rewardPts = rewardMutations[0].apply(mutated, rng)
				}
				g.Rebind(mutated)
				rep, err := g.RepairExpiries(context.Background(), pts)
				if err != nil {
					t.Fatal(err)
				}
				repriced := make([]bool, len(g.Candidates()))
				for _, ci := range g.RepairRewards(rewardPts) {
					repriced[ci] = true
				}
				want, err := Generate(mutated, tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				assertGeneratorsEqual(t, g, want)
				for w := range lists {
					dropped := slices.ContainsFunc(lists[w], func(r StrategyRef) bool { return rep.index(g, r.Cand) < 0 })
					n := len(lists[w])
					var spliced bool
					lists[w], spliced = g.SpliceStrategies(w, lists[w], rep, &sc)
					switch {
					case dropped:
						lost++
					case len(lists[w]) > n:
						gained++
					default:
						whole++
					}
					if spliced != (dropped || len(lists[w]) != n) {
						t.Fatalf("step %d worker %d: splice reported %v, membership changed: %v", step, w, spliced, !spliced)
					}
					g.RepairStrategyPayoffs(w, lists[w], repriced)
					if ws := g.WorkerStrategies(w, &wsc); !reflect.DeepEqual(lists[w], ws) {
						t.Fatalf("step %d worker %d: spliced list diverged:\ngot  %+v\nwant %+v", step, w, lists[w], ws)
					}
					assertListMatches(t, fmt.Sprintf("step %d worker %d", step, w), g, lists[w], want, want.WorkerStrategies(w, &wsc))
				}

				live := 0
				for i := range g.Candidates() {
					if c := &g.Candidates()[i]; c.Live() {
						live += c.bytes()
					}
				}
				dropped := false
				for ci := range before {
					if !before[ci].Live() {
						continue
					}
					gone := rep.index(g, int32(ci)) < 0
					if gone != holdsAny(&before[ci], pts) {
						t.Fatalf("step %d: candidate %d %v dropped %v, holds a changed point %v",
							step, ci, before[ci].Points, gone, !gone)
					}
					if gone {
						stale += before[ci].bytes()
						dropped = true
					}
				}
				appended, nlive := rep.end-rep.fresh, g.Stats().Candidates
				full := len(before)+appended > capBefore
				tombstones := len(before) - nlive + appended
				resl := stale > live || full && 2*tombstones >= nlive
				if resl != (rep.remap != nil) {
					t.Fatalf("step %d: %d dropped bytes against %d live, full %v with %d tombstones for %d live, but compacted: %v",
						step, stale, live, full, tombstones, nlive, rep.remap != nil)
				}
				switch {
				case resl:
					stale = 0
					compacted++
				case dropped:
					kept++
				}
				if g.liveBytes != live || g.staleBytes != stale {
					t.Fatalf("step %d: byte accounting live %d stale %d, recount %d and %d",
						step, g.liveBytes, g.staleBytes, live, stale)
				}
				if g.liveBytes+g.staleBytes > 2*g.liveBytes {
					t.Fatalf("step %d: table and slabs hold up to %d bytes for %d live bytes",
						step, g.liveBytes+g.staleBytes, g.liveBytes)
				}
				if resl && len(g.Candidates()) != g.Stats().Candidates {
					t.Fatalf("step %d: compacted table holds %d entries for %d live candidates",
						step, len(g.Candidates()), g.Stats().Candidates)
				}
				// A retained candidate keeps its index and its slab unless
				// the table was compacted, and then it moves slabs.
				for ci := range before {
					ni := rep.index(g, int32(ci))
					if !before[ci].Live() || ni < 0 {
						continue
					}
					if !resl && int(ni) != ci {
						t.Fatalf("step %d: retained candidate %d moved to %d without a compaction", step, ci, ni)
					}
					if (&before[ci].Points[0] == &g.Candidates()[ni].Points[0]) == resl {
						t.Fatalf("step %d: compaction %v, but retained candidate %d moved slabs: %v",
							step, resl, ci, !resl)
					}
				}
				in = mutated
			}
			if compacted < 2 || kept == 0 {
				t.Fatalf("%d steps compacted and %d dropped candidates without compacting; want at least 2 and 1", compacted, kept)
			}
			t.Logf("%d steps compacted, %d did not", compacted, kept)
		})
	}
	if whole == 0 || gained == 0 || lost == 0 {
		t.Fatalf("splices: %d lists kept whole, %d only gained, %d lost candidates; want each kind", whole, gained, lost)
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
