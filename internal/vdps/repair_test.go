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
// same point set and compared bit for bit: points, frontier (sequences
// included), reward, and the flat maxSlack, setSize and low entries. Every
// tombstone must be inert — no points or frontier, a zero reward, maxSlack
// -Inf, setSize 0 and low 0 — and the live count must equal want's table
// and got's Stats. got's index by point must list what a
// scan of its table finds (see assertPointIndex). Every worker's enumerated
// strategy space must then match want's (see assertListMatches).
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
			if c.Points != nil || c.Frontier != nil || c.Reward != 0 ||
				!math.IsInf(got.maxSlack[ci], -1) || got.setSize[ci] != 0 || got.low[ci] != 0 {
				t.Fatalf("tombstone %d is not inert: %+v, caches (%v,%d,%d)",
					ci, *c, got.maxSlack[ci], got.setSize[ci], got.low[ci])
			}
			continue
		}
		live++
		wi, ok := byPoints[fmt.Sprint(c.Points)]
		if !ok {
			t.Fatalf("candidate %d %v is not in the fresh table", ci, c.Points)
		}
		wc := &want.candidates[wi]
		if !reflect.DeepEqual(c.Points, wc.Points) {
			t.Fatalf("candidate %d %v, fresh %d %v", ci, c.Points, wi, wc.Points)
		}
		if !reflect.DeepEqual(c.Frontier, wc.Frontier) {
			t.Fatalf("candidate %d (%v) frontier diverged:\ngot  %+v\nwant %+v", ci, c.Points, c.Frontier, wc.Frontier)
		}
		if math.Float64bits(c.Reward) != math.Float64bits(wc.Reward) {
			t.Fatalf("candidate %d (%v) reward %v, want %v", ci, c.Points, c.Reward, wc.Reward)
		}
		if math.Float64bits(got.maxSlack[ci]) != math.Float64bits(want.maxSlack[wi]) ||
			got.setSize[ci] != want.setSize[wi] ||
			got.low[ci] != want.low[wi] || got.low[ci] != int32(c.Points[0]) {
			t.Fatalf("candidate %d (%v) caches (%v,%d,%d), want (%v,%d,%d)", ci, c.Points,
				got.maxSlack[ci], got.setSize[ci], got.low[ci],
				want.maxSlack[wi], want.setSize[wi], want.low[wi])
		}
	}
	if live != len(want.candidates) || got.Stats().Candidates != live {
		t.Fatalf("%d live candidates (Stats %d), fresh table %d", live, got.Stats().Candidates, len(want.candidates))
	}
	assertPointIndex(t, got)
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

// assertPointIndex requires g's index by point, as the repairs read it, to
// yield for every point, and for every pair of points p and n-1-p, exactly
// the live candidates whose Points hold one of them, ascending: what a scan
// of the table yields. A generator no repair has read gets its index built
// here.
func assertPointIndex(t *testing.T, g *Generator) {
	t.Helper()
	n := len(g.inst.Points)
	for p := 0; p < n; p++ {
		for _, pts := range [][]int{{p}, {p, n - 1 - p}} {
			var want []int32
			for ci := range g.candidates {
				c := &g.candidates[ci]
				if c.Live() && slices.ContainsFunc(c.Points, func(q int) bool { return slices.Contains(pts, q) }) {
					want = append(want, int32(ci))
				}
			}
			if got := g.holding(pts); !slices.Equal(got, want) {
				t.Fatalf("points %v: index yields %v, a scan %v", pts, got, want)
			}
		}
	}
}

// index returns the post-repair index of pre-repair candidate ci, or -1 when
// the repair rep dropped it. Outside a compaction a candidate keeps its
// index, and one the repair dropped is now a tombstone.
func (rep *ExpiryRepair) index(g *Generator, ci int32) int32 {
	if rep.remap != nil {
		return rep.remap[ci]
	}
	if g.setSize[ci] == 0 {
		return -1
	}
	return ci
}

// spliceOracle is SpliceStrategies as a per-entry loop, the tests' oracle:
// it asks rep.index about every entry of the list.
func spliceOracle(g *Generator, w int, list []StrategyRef, rep ExpiryRepair) ([]StrategyRef, bool) {
	if rep.dropped == 0 && rep.fresh == rep.end {
		return list, false
	}
	rule := g.Rule(w)
	add := rule.gather(nil, rep.fresh, rep.end)
	kept := list[:0]
	for _, ref := range list {
		if ref.Cand = rep.index(g, ref.Cand); ref.Cand >= 0 {
			kept = append(kept, ref)
		}
	}
	spliced := len(kept) < len(list) || len(add) > 0
	if len(kept)+len(add) == 0 {
		return nil, spliced
	}
	return append(kept, add...), spliced
}

// repriceOracle is RepairStrategyPayoffs as a per-entry loop, the tests'
// oracle: it tests every entry of the list against a mask of the re-priced
// candidates.
func repriceOracle(g *Generator, w int, refs []StrategyRef, repriced []int) bool {
	mask := make([]bool, len(g.candidates))
	for _, ci := range repriced {
		mask[ci] = true
	}
	rule := g.Rule(w)
	marked := false
	for i := range refs {
		if !mask[refs[i].Cand] {
			continue
		}
		marked = true
		c := &g.candidates[refs[i].Cand]
		refs[i].Payoff = c.Reward / rule.totalTime(c.Frontier[refs[i].Entry].Time)
	}
	return marked
}

// sublist returns a random ascending sublist of list, each entry kept with
// probability keep, in a fresh array with room for spare more entries.
func sublist(rng *rand.Rand, list []StrategyRef, keep float64, spare int) []StrategyRef {
	out := make([]StrategyRef, 0, len(list)+spare)
	for _, r := range list {
		if rng.Float64() < keep {
			out = append(out, r)
		}
	}
	return out
}

// TestRunWiseRepairsMatchPerEntry pins the galloping repairs to their
// per-entry oracles on random ascending lists. Along a chain of expiry
// repairs, some of which compact the table, random sublists of each
// worker's pre-repair list, dense and sparse, spliced through the repair
// with SpliceStrategies must equal spliceOracle's result entry for entry,
// and report the same. Then random sublists of each worker's repaired list,
// their payoffs scrambled, re-priced by RepairStrategyPayoffs under a
// random ascending subset of the live candidates, RepairRewards' return
// added, must equal repriceOracle's, payoff bits included.
func TestRunWiseRepairsMatchPerEntry(t *testing.T) {
	in := repairGM(t, 3, 60, 8, 24)
	opt := Options{Epsilon: 1.5}
	g, err := Generate(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	var sc, wsc StrategyScratch
	compacted, kept := 0, 0
	for step := 0; step < 24; step++ {
		lists := make([][]StrategyRef, len(in.Workers))
		for w := range lists {
			lists[w] = g.WorkerStrategies(w, &wsc)
		}
		mutated := in.Clone()
		pts := mutateExpiries(mutated, rng)
		rewardPts := rewardMutations[0].apply(mutated, rng)
		g.Rebind(mutated)
		rep, err := g.RepairExpiries(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.remap != nil {
			compacted++
		} else if rep.dropped > 0 {
			kept++
		}
		for w, list := range lists {
			for _, keep := range []float64{1, 0.9, 0.5, 0.1} {
				a := sublist(rng, list, keep, rng.Intn(8))
				b := append(make([]StrategyRef, 0, cap(a)), a...)
				got, gs := g.SpliceStrategies(w, a, rep, &sc)
				want, ws := spliceOracle(g, w, b, rep)
				if gs != ws || !slices.Equal(got, want) {
					t.Fatalf("step %d worker %d keep %v: splice %v %+v, per entry %v %+v", step, w, keep, gs, got, ws, want)
				}
			}
		}
		repriced := g.RepairRewards(rewardPts)
		var live []int
		for ci, n := range g.setSize {
			if n != 0 {
				live = append(live, ci)
			}
		}
		for w := range mutated.Workers {
			list := g.WorkerStrategies(w, &wsc)
			for _, keep := range []float64{1, 0.5, 0.05} {
				var set []int
				for _, ci := range live {
					if rng.Float64() < keep/4 || slices.Contains(repriced, ci) {
						set = append(set, ci)
					}
				}
				a := sublist(rng, list, keep, 0)
				for i := range a {
					a[i].Payoff = rng.Float64()
				}
				b := slices.Clone(a)
				gh, wh := g.RepairStrategyPayoffs(w, a, set), repriceOracle(g, w, b, set)
				for i := range a {
					if a[i] != b[i] || math.Float64bits(a[i].Payoff) != math.Float64bits(b[i].Payoff) {
						t.Fatalf("step %d worker %d keep %v entry %d: re-priced %+v, per entry %+v", step, w, keep, i, a[i], b[i])
					}
				}
				if gh != wh {
					t.Fatalf("step %d worker %d keep %v: re-pricing reported %v, per entry %v", step, w, keep, gh, wh)
				}
			}
		}
		in = mutated
	}
	if compacted == 0 || kept == 0 {
		t.Fatalf("%d repairs compacted and %d dropped candidates without compacting; want each", compacted, kept)
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

// TestSpliceStrategiesInPlace pins the in-place splice: when a list's
// capacity holds its spliced result, SpliceStrategies returns the list's own
// array, holding what WorkerStrategies returns, and allocates nothing, for a
// worker with a speed override (re-checked through model.RouteFeasible) as
// for a default-speed one. Each list gets the least capacity that fits, so
// a list that drops at least as many entries as it appends has none to
// spare, and one that appends more has exactly the difference. The loosened
// and tightened expiries make lists of both kinds.
func TestSpliceStrategiesInPlace(t *testing.T) {
	var gained, lost, scaled int
	for seed := int64(1); seed <= 4; seed++ {
		in := repairGM(t, seed, 60, 8, 24)
		g, err := Generate(in, Options{Epsilon: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		var sc, wsc StrategyScratch
		lists := make([][]StrategyRef, len(in.Workers))
		for w := range lists {
			lists[w] = g.WorkerStrategies(w, &sc)
		}
		mutated := in.Clone()
		pts := mutateExpiries(mutated, rand.New(rand.NewSource(seed*7)))
		g.Rebind(mutated)
		rep, err := g.RepairExpiries(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		for w, orig := range lists {
			want := g.WorkerStrategies(w, &wsc)
			buf := make([]StrategyRef, len(orig), max(len(orig), len(want)))
			var got []StrategyRef
			allocs := testing.AllocsPerRun(10, func() {
				copy(buf, orig)
				got, _ = g.SpliceStrategies(w, buf, rep, &sc)
			})
			if mutated.SpeedFactor(w) != 1 {
				scaled++
			}
			if allocs != 0 {
				t.Errorf("seed %d worker %d: splice into a list with room allocated %v times", seed, w, allocs)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d worker %d: spliced list diverged:\ngot  %+v\nwant %+v", seed, w, got, want)
			}
			if len(got) > 0 && &got[0] != &buf[0] {
				t.Errorf("seed %d worker %d: spliced list left the input's array", seed, w)
			}
			if slices.ContainsFunc(orig, func(r StrategyRef) bool { return rep.index(g, r.Cand) < 0 }) {
				lost++
			}
			if slices.ContainsFunc(got, func(r StrategyRef) bool { return int(r.Cand) >= rep.fresh }) {
				gained++
			}
		}
	}
	if gained == 0 || lost == 0 || scaled == 0 {
		t.Fatalf("%d lists gained and %d lost entries, %d of workers with a speed override; want each", gained, lost, scaled)
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

				// A re-summed candidate whose points all lie below 64 met a
				// touched point at 64 or above.
				if slices.Max(pts) >= 64 {
					for _, ci := range got {
						if slices.Max(g.Candidates()[ci].Points) < 64 {
							wideMet = true
						}
					}
				}
			})
		}
	}
	if !wideMet {
		t.Fatal("no re-summed candidate below point 64 met a touched point at 64 or above")
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
				hit := g.RepairStrategyPayoffs(w, cached[w], changed)
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
// ground truth: for every worker and candidate, Rule.Strategy returns
// exactly the strategy ForWorker enumerates for that candidate — payoff
// bits and sequence — and false when it enumerates none. game's random
// start and best-response walk price single candidates with Strategy, so
// this holds the rule to the oracle one candidate at a time, singletons
// included. repairGM's mixed speeds cover both the slack test and the
// scaled-speed re-check.
func TestFeasibleForMatchesEnumeration(t *testing.T) {
	in := repairGM(t, 5, 60, 8, 24)
	g, err := Generate(in, Options{Epsilon: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Singletons(nil)) == 0 {
		t.Fatal("no singleton candidates")
	}
	scaled := 0
	for w := range in.Workers {
		enumerated := map[int]WorkerVDPS{}
		for _, s := range g.ForWorker(w) {
			enumerated[s.Candidate] = s
		}
		rule := g.Rule(w)
		for ci := range g.Candidates() {
			got, ok := rule.Strategy(ci)
			want, inc := enumerated[ci]
			if ok != inc {
				t.Fatalf("worker %d candidate %d: rule says %v, enumeration %v", w, ci, ok, inc)
			}
			if !ok {
				continue
			}
			if int(got.Cand) != ci || math.Float64bits(got.Payoff) != math.Float64bits(want.Payoff) ||
				!reflect.DeepEqual(g.RefSeq(got), want.Seq) {
				t.Fatalf("worker %d candidate %d: rule (cand %d, payoff %v, seq %v), enumeration (payoff %v, seq %v)",
					w, ci, got.Cand, got.Payoff, g.RefSeq(got), want.Payoff, want.Seq)
			}
			if in.SpeedFactor(w) != 1 {
				scaled++
			}
		}
	}
	if scaled == 0 {
		t.Fatal("no strategy of a speed-override worker; the scaled re-check goes untested")
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
				repriced := g.RepairRewards(rewardPts)
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
