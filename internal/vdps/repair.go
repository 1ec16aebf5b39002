package vdps

import (
	"context"
	"math"
	"slices"
	"sort"

	"fairtask/internal/bitset"
	"fairtask/internal/geo"
	"fairtask/internal/grid"
	"fairtask/internal/model"
)

// Rebind repoints the generator at a structurally identical instance: the
// same delivery points (count, order, locations, earliest expiries) and the
// same travel model, but possibly different task rewards or a different
// worker roster. Per-worker queries (WorkerStrategies, ForWorker) read the
// new instance immediately; candidate structure is untouched.
//
// Rebind is the cheap half of incremental strategy-space repair for the
// streaming engine: worker arrivals and departures never change the
// center-level candidate DP, and reward-only task churn changes candidate
// rewards but not frontiers. Callers are responsible for the structural
// contract — a delta that changes any point's earliest expiry (or the point
// set itself) invalidates the DP and requires a full Generate instead.
func (g *Generator) Rebind(in *model.Instance) {
	g.inst = in
}

// EffectiveMaxSize returns the candidate-set size cap Generate would apply
// to the instance under the options: Options.MaxSize when positive,
// otherwise the worker-derived cap, both clamped to the point count. The
// streaming engine compares this value across a worker-roster delta to
// decide whether a cached generator still covers every set size a worker
// could ask for, or whether the candidate DP must be re-run.
func EffectiveMaxSize(in *model.Instance, opt Options) int {
	ms := opt.MaxSize
	if ms <= 0 {
		ms = derivedMaxSize(in)
	}
	if ms > len(in.Points) {
		ms = len(in.Points)
	}
	return ms
}

// RepairRewards recomputes the cached Reward of every candidate containing
// at least one of the given delivery points, after task arrivals, removals
// or reward changes confined to those points. It returns the indices of
// candidates whose reward actually changed (bitwise), in ascending order.
//
// Each affected reward is recomputed from scratch by summing the point
// rewards in ascending point order — exactly the accumulation order
// addCandidate uses during a cold Generate — so a repaired generator is
// bit-identical to a freshly generated one on every field the solvers read.
// Strategy references handed out before the repair hold stale payoffs;
// rebuild affected workers with WorkerStrategies.
func (g *Generator) RepairRewards(points []int) []int {
	if len(points) == 0 {
		return nil
	}
	touched := make(map[int]bool, len(points))
	for _, p := range points {
		touched[p] = true
	}
	var changed []int
	for ci := range g.candidates {
		c := &g.candidates[ci]
		hit := false
		for _, p := range c.Points {
			if touched[p] {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		var reward float64
		for _, p := range c.Points {
			reward += g.inst.Points[p].TotalReward()
		}
		if reward != c.Reward {
			c.Reward = reward
			changed = append(changed, ci)
		}
	}
	return changed
}

// RepairStrategyPayoffs recomputes the payoff keys of worker w's cached
// strategy list in place after candidate rewards changed, instead of
// re-enumerating the candidate table through WorkerStrategies. Reward changes
// cannot alter which candidates are feasible for a worker or which frontier
// entry is fastest (both depend only on expiries and geometry), so the list's
// (candidate, entry) membership is still exact — only the payoff keys and
// their order are stale.
//
// changed lists, ascending, the candidate indices whose Reward RepairRewards
// just moved; only refs pointing at those candidates are re-keyed. Everything
// else in the cached list keeps its exact payoff bits and its relative order
// — WorkerStrategies' total order is payoff descending with ascending
// candidate on ties, and candidate indices are unique within a list, so that
// order is strict and the unchanged entries are already a sorted subsequence
// of the final list. The repair therefore splits the list, re-keys and sorts
// only the (typically few) changed entries, and merges: O(n + k log k)
// instead of the full re-enumeration's candidate-table scan and n-entry sort.
// The result is bit-identical, values and permutation, to a fresh
// WorkerStrategies call. refs is mutated in place; callers own the
// transactional consequences (the streaming engine's dirty-flag protocol).
func (g *Generator) RepairStrategyPayoffs(w int, refs []StrategyRef, changed []int, sc *StrategyScratch) {
	n := len(refs)
	if n == 0 || len(changed) == 0 {
		return
	}
	// Partition: unchanged entries slide to the front of refs preserving
	// their (already final) order; changed entries gather into scratch.
	keys := sc.keys[:0]
	u := 0
	for i := range refs {
		ci := int(refs[i].Cand)
		if j := sort.SearchInts(changed, ci); j < len(changed) && changed[j] == ci {
			keys = append(keys, refs[i])
		} else {
			refs[u] = refs[i]
			u++
		}
	}
	sc.keys = keys
	k := len(keys)
	if k == 0 {
		return
	}
	approach := g.inst.ApproachTime(w)
	factor := g.inst.SpeedFactor(w)
	if factor == 1 {
		for i := range keys {
			c := &g.candidates[keys[i].Cand]
			keys[i].Payoff = c.Reward / (approach + c.Frontier[keys[i].Entry].Time)
		}
	} else {
		for i := range keys {
			c := &g.candidates[keys[i].Cand]
			keys[i].Payoff = c.Reward / (approach + factor*c.Frontier[keys[i].Entry].Time)
		}
	}
	if cap(sc.tmp) < k {
		sc.tmp = make([]StrategyRef, k, cap(sc.keys))
	}
	out := sortKeysByPayoffDesc(keys, sc.tmp[:k])
	// The stable radix sort orders equal payoffs by input order; restore the
	// ascending-candidate tie-break within each equal-payoff run. Payoffs are
	// non-negative, so value ties are exactly bit-pattern ties and runs are
	// adjacent after the radix pass (and almost always length 1).
	for i := 0; i < k; {
		j := i + 1
		for j < k && math.Float64bits(out[j].Payoff) == math.Float64bits(out[i].Payoff) {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(out[i:j], func(a, b StrategyRef) int { return int(a.Cand) - int(b.Cand) })
		}
		i = j
	}
	// Backward merge of the two sorted runs into refs[:n].
	i, j, p := u-1, k-1, n-1
	for j >= 0 {
		if i >= 0 && refLess(&out[j], &refs[i]) {
			refs[p] = refs[i]
			i--
		} else {
			refs[p] = out[j]
			j--
		}
		p--
	}
}

// refLess orders strategy references the way WorkerStrategies emits them:
// payoff descending, candidate ascending on ties.
func refLess(a, b *StrategyRef) bool {
	da, db := descBits(a.Payoff), descBits(b.Payoff)
	if da != db {
		return da < db
	}
	return a.Cand < b.Cand
}

// FeasibleFor reports whether candidate ci is a strategy WorkerStrategies
// would include for worker w: the set size respects the worker's maxDP and
// some frontier sequence is executable within all deadlines at the worker's
// speed. The streaming engine uses it to decide whether a regenerated
// candidate widens a worker's strategy space.
func (g *Generator) FeasibleFor(w, ci int) bool {
	if maxDP := g.inst.Workers[w].MaxDP; maxDP > 0 && int(g.setSize[ci]) > maxDP {
		return false
	}
	c := &g.candidates[ci]
	approach := g.inst.ApproachTime(w)
	if factor := g.inst.SpeedFactor(w); factor != 1 {
		fi, ok := c.bestForScaledIndex(g.inst, w)
		return ok && approach+factor*c.Frontier[fi].Time > 0
	}
	if g.maxSlack[ci] < approach {
		return false
	}
	fi, _ := c.bestForIndex(approach)
	return approach+c.Frontier[fi].Time > 0
}

// ExpiryRepair reports the candidate-table surgery RepairExpiries performed,
// in terms the strategy-space caches above the generator need to stay
// consistent: how retained candidate indices moved, which candidates are
// gone, and which are regenerated.
type ExpiryRepair struct {
	// Remap maps every pre-repair candidate index to its post-repair index,
	// or -1 for candidates that were dropped (they contained a changed
	// point). Retained candidates keep their identity: points, frontier and
	// reward are untouched, only the index moves.
	Remap []int
	// Dropped lists the pre-repair indices of dropped candidates, ascending.
	Dropped []int
	// Fresh lists the post-repair indices of regenerated candidates —
	// every candidate containing at least one changed point that is feasible
	// under the new expiries — ascending.
	Fresh []int
}

// RepairExpiries re-runs the candidate DP restricted to the sets containing
// at least one of the given delivery points, after those points' earliest
// task expiries changed, and splices the regenerated candidates into the
// table in the deterministic (size, lexicographic points) order. Candidates
// without a changed point are retained as-is: a set's feasible sequences and
// Pareto frontier depend only on the expiries and geometry of its own
// points, so a full GenerateContext on the mutated instance would rebuild
// them bit-identically.
//
// The restricted DP explores exactly the states that can still reach a
// changed point: a state is kept when its set already contains one, or when
// the remaining size budget covers the ε-graph hop distance from its last
// point to the nearest changed point (a lower bound on any extension path,
// so the pruning never loses a candidate). On dense instances where every
// set can reach every point this degrades to the full DP; on ε-sparse
// instances it touches a small neighborhood of the changed points.
//
// The generator must already be rebound to the mutated instance. On error
// (cancellation, ErrTooManySets) the candidate table is left untouched.
// Cached strategy lists hold pre-repair candidate indices; remap unaffected
// lists with Remap and rebuild workers referencing Dropped candidates or
// gaining Fresh ones.
func (g *Generator) RepairExpiries(ctx context.Context, points []int) (ExpiryRepair, error) {
	if len(points) == 0 {
		remap := make([]int, len(g.candidates))
		for i := range remap {
			remap[i] = i
		}
		return ExpiryRepair{Remap: remap}, nil
	}
	in := g.inst
	n := len(in.Points)
	changed := make([]bool, n)
	changedMask := bitset.New(n)
	for _, p := range points {
		changed[p] = true
		changedMask = changedMask.With(p)
	}
	maxSize := g.stats.MaxSetSize
	eps := g.opt.Epsilon
	if eps <= 0 {
		eps = math.Inf(1)
	}

	expiry := make([]float64, n)
	for i := range in.Points {
		expiry[i] = in.Points[i].EarliestExpiry()
	}
	var neighbors [][]int
	if !math.IsInf(eps, 1) && !g.opt.DisableIndex && n > 0 {
		locs := make([]geo.Point, n)
		for i := range in.Points {
			locs[i] = in.Points[i].Loc
		}
		neighbors = grid.New(locs, eps).Neighborhoods(eps)
	}

	hops := hopDistances(in, changed, neighbors, eps)
	// keep retains a DP state that contains a changed point or can still
	// absorb one within the remaining size budget. Every ancestor of a kept
	// state is kept (the hop bound relaxes by exactly one per removed
	// extension step), so kept states carry their full, exact frontiers.
	keep := func(ds *dpState, size int) bool {
		if ds.set.Intersects(changedMask) {
			return true
		}
		return hops[ds.last] <= maxSize-size
	}

	retained := 0
	for ci := range g.candidates {
		if !g.candidates[ci].Mask.Intersects(changedMask) {
			retained++
		}
	}

	// Restricted DP, mirroring GenerateContext's level loop.
	level := make([]*dpState, 0, n)
	byCand := map[string]*Candidate{}
	for j := 0; j < n; j++ {
		t := in.Travel.Time(in.Center, in.Points[j].Loc)
		if t > expiry[j] {
			continue
		}
		st := State{Seq: model.Route{j}, Time: t, Slack: expiry[j] - t}
		ds := &dpState{set: bitset.Of(j), last: j, frontier: []State{st}}
		if !keep(ds, 1) {
			continue
		}
		level = append(level, ds)
		if changed[j] {
			g.addCandidate(byCand, ds)
		}
	}
	all := allPoints(n)
	for size := 2; size <= maxSize && len(level) > 0; size++ {
		if err := ctx.Err(); err != nil {
			return ExpiryRepair{}, err
		}
		next, _ := expandLevel(ctx, g, level, all, neighbors, expiry, eps)
		if err := ctx.Err(); err != nil {
			return ExpiryRepair{}, err
		}
		level = level[:0]
		for _, ds := range next {
			if !keep(ds, size) {
				continue
			}
			level = append(level, ds)
			if ds.set.Intersects(changedMask) {
				g.addCandidate(byCand, ds)
				if g.opt.MaxSets > 0 && retained+len(byCand) > g.opt.MaxSets {
					return ExpiryRepair{}, ErrTooManySets
				}
			}
		}
	}

	// Finalize the regenerated candidates and splice them into the retained
	// table in candLess order — the same total order finalizeCandidates
	// establishes, so the repaired table is bit-identical to a full re-run.
	fresh := make([]Candidate, 0, len(byCand))
	for _, c := range byCand {
		sortFrontier(c.Frontier)
		fresh = append(fresh, *c)
	}
	sort.Slice(fresh, func(i, j int) bool { return candLess(&fresh[i], &fresh[j]) })

	rep := ExpiryRepair{Remap: make([]int, len(g.candidates))}
	merged := make([]Candidate, 0, retained+len(fresh))
	fi := 0
	for ci := range g.candidates {
		c := &g.candidates[ci]
		if c.Mask.Intersects(changedMask) {
			rep.Remap[ci] = -1
			rep.Dropped = append(rep.Dropped, ci)
			continue
		}
		for fi < len(fresh) && candLess(&fresh[fi], c) {
			rep.Fresh = append(rep.Fresh, len(merged))
			merged = append(merged, fresh[fi])
			fi++
		}
		rep.Remap[ci] = len(merged)
		merged = append(merged, *c)
	}
	for ; fi < len(fresh); fi++ {
		rep.Fresh = append(rep.Fresh, len(merged))
		merged = append(merged, fresh[fi])
	}

	g.candidates = merged
	g.stats.Candidates = len(merged)
	g.maxSlack = make([]float64, len(merged))
	g.setSize = make([]int32, len(merged))
	for ci := range merged {
		g.maxSlack[ci] = merged[ci].MaxSlack()
		g.setSize[ci] = int32(len(merged[ci].Points))
	}
	return rep, nil
}

// hopDistances returns each point's BFS hop distance to the nearest changed
// point over the ε-adjacency graph (0 for changed points). The adjacency
// used is the Euclidean-ball superset the DP's grid index provides, which
// can only under-estimate distances for metrics whose travel distance
// exceeds the Euclidean one — an under-estimate weakens the pruning but
// never loses a reachable candidate. With ε disabled every pair is adjacent.
func hopDistances(in *model.Instance, changed []bool, neighbors [][]int, eps float64) []int {
	n := len(in.Points)
	const far = 1 << 30
	hops := make([]int, n)
	queue := make([]int, 0, n)
	for p := 0; p < n; p++ {
		if changed[p] {
			hops[p] = 0
			queue = append(queue, p)
		} else {
			hops[p] = far
		}
	}
	if math.IsInf(eps, 1) {
		for p := range hops {
			if hops[p] != 0 {
				hops[p] = 1
			}
		}
		return hops
	}
	adj := neighbors
	if adj == nil {
		// Index disabled: build the ε-ball adjacency with a direct scan.
		locs := make([]geo.Point, n)
		for i := range in.Points {
			locs[i] = in.Points[i].Loc
		}
		adj = grid.New(locs, eps).Neighborhoods(eps)
	}
	for qi := 0; qi < len(queue); qi++ {
		p := queue[qi]
		for _, q := range adj[p] {
			if hops[q] > hops[p]+1 {
				hops[q] = hops[p] + 1
				queue = append(queue, q)
			}
		}
	}
	return hops
}
