package vdps

import (
	"context"
	"math"
	"slices"

	"fairtask/internal/bitset"
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
// It reads only the candidates that hold a given point, through the
// generator's index by point (see pointIndex). Each affected reward is
// recomputed from scratch by summing the point rewards in ascending point
// order — exactly the accumulation order a cold Generate uses — so a
// repaired generator is bit-identical to a freshly generated one on every
// field the solvers read.
// Strategy references handed out before the repair hold stale payoffs for
// the returned candidates; recompute them with RepairStrategyPayoffs.
func (g *Generator) RepairRewards(points []int) []int {
	if len(points) == 0 {
		return nil
	}
	held := g.holding(points)
	changed := make([]int, 0, len(held))
	for _, ci := range held {
		c := &g.candidates[ci]
		var reward float64
		for _, p := range c.Points {
			reward += g.inst.Points[p].TotalReward()
		}
		if reward != c.Reward {
			c.Reward = reward
			changed = append(changed, int(ci))
		}
	}
	return changed
}

// RepairStrategyPayoffs recomputes, in place, the payoff of every entry of
// worker w's cached strategy list whose candidate is in repriced (ascending
// candidate indices, as RepairRewards returns them), and reports whether
// any entry was. It gallops through the ascending list from one re-priced
// candidate to the next, so it reads about as many entries as there are
// re-priced candidates, not the whole list. Every other entry is left
// alone: its payoff is already exact as long as its candidate's reward and
// frontier did not change and neither did the worker's location, MaxDP and
// speed, which is the caller's contract. Reward changes cannot alter which
// candidates are feasible for a worker or which frontier entry is fastest
// (both depend only on expiries and geometry), so the list's (candidate,
// entry) membership and its ascending candidate order stay exact too. Each
// recomputed payoff is the new reward over the entry's total travel time
// under the worker's Rule, as Rule.Strategy prices it, so the repaired list
// is bit-identical to a fresh WorkerStrategies call. Callers own the
// transactional consequences of the in-place write (the streaming engine's
// dirty-flag protocol).
func (g *Generator) RepairStrategyPayoffs(w int, refs []StrategyRef, repriced []int) bool {
	rule := g.Rule(w)
	marked := false
	i := 0
	for _, ci := range repriced {
		if i = seekCand(refs, i, int32(ci)); i == len(refs) {
			break
		}
		if refs[i].Cand != int32(ci) {
			continue
		}
		marked = true
		c := &g.candidates[ci]
		refs[i].Payoff = c.Reward / rule.totalTime(c.Frontier[refs[i].Entry].Time)
		i++
	}
	return marked
}

// seekCand returns the position of the first entry at or after i of the
// ascending list refs whose candidate is not below ci, or len(refs). It
// gallops forward from i, then bisects the last step, so an entry d places
// ahead costs O(log d) probes.
func seekCand(refs []StrategyRef, i int, ci int32) int {
	if i >= len(refs) || refs[i].Cand >= ci {
		return i
	}
	lo, step := i, 1 // refs[lo] is below ci
	for lo+step < len(refs) && refs[lo+step].Cand < ci {
		lo += step
		step *= 2
	}
	hi := min(lo+step, len(refs))
	for lo+1 < hi {
		m := int(uint(lo+hi) >> 1)
		if refs[m].Cand < ci {
			lo = m
		} else {
			hi = m
		}
	}
	return hi
}

// ExpiryRepair records the candidate-table surgery of one RepairExpiries
// call, which SpliceStrategies needs to carry a strategy list built before
// it over to the repaired table. Splicing edits the list in place, so each
// pre-repair list goes through it once. The zero value is the identity: no
// candidate was dropped, appended or moved, and a splice through it leaves
// the list alone.
type ExpiryRepair struct {
	// dropped counts the candidates the repair turned into tombstones:
	// every live candidate containing a changed point.
	dropped int
	// gone lists them, ascending, when the repair did not compact the table;
	// they kept their indices as tombstones.
	gone []int32
	// fresh and end bound the indices of the regenerated candidates — every
	// candidate containing at least one changed point that is feasible
	// under the new expiries — which the repair appended to the table.
	fresh, end int
	// remap is nil unless the repair compacted the table. It then maps every
	// pre-repair candidate index to its post-repair index, -1 for a
	// tombstone; live candidates keep their order, so it is monotonic.
	remap []int32
}

// Dropped returns the number of candidates the repair dropped.
func (rep ExpiryRepair) Dropped() int { return rep.dropped }

// Regenerated returns the number of candidates the repair appended.
func (rep ExpiryRepair) Regenerated() int { return rep.end - rep.fresh }

// SpliceStrategies carries worker w's strategy list, as WorkerStrategies
// built it before the expiry repair rep, over to the repaired table: it
// drops the entries of dropped candidates and appends the regenerated
// candidates the worker can take, priced by the worker's Rule and
// gathered into sc first. The list holds ascending candidate indices and
// the regenerated candidates were appended after every retained one, so the
// result ascends too. Outside a compaction it gallops through the list to
// each dropped candidate and moves each run of retained entries between
// two of them down with one copy, so it reads about as many entries as the
// repair dropped. A compaction renumbers every retained entry through its
// monotonic remap, which keeps their order. The result equals a fresh
// WorkerStrategies call as long as the worker's location, MaxDP and speed
// did not change; a retained entry keeps its payoff, so after a reward
// change it still needs RepairStrategyPayoffs.
//
// It reports whether the list's membership changed. The splice consumes
// its input: the retained entries move down over the dropped ones and the
// regenerated ones are appended after them, in the input's array; append
// reallocates only when they outnumber the dropped entries plus the spare
// capacity. A list left empty comes back nil, as WorkerStrategies returns
// it. Callers own the transactional consequences of the in-place write, as
// with RepairStrategyPayoffs.
func (g *Generator) SpliceStrategies(w int, list []StrategyRef, rep ExpiryRepair, sc *StrategyScratch) ([]StrategyRef, bool) {
	if rep.dropped == 0 && rep.fresh == rep.end {
		return list, false
	}
	rule := g.Rule(w)
	add := rule.gather(sc.keys[:0], rep.fresh, rep.end)
	sc.keys = add
	var kept []StrategyRef
	if rep.remap != nil {
		kept = list[:0]
		for _, ref := range list {
			if ref.Cand = rep.remap[ref.Cand]; ref.Cand >= 0 {
				kept = append(kept, ref)
			}
		}
	} else {
		// list[run:at] is the retained run not yet moved down to list[n:].
		n, run, at := 0, 0, 0
		for _, ci := range rep.gone {
			if at = seekCand(list, at, ci); at == len(list) {
				break
			}
			if list[at].Cand != ci {
				continue
			}
			if n < run {
				copy(list[n:], list[run:at])
			}
			n += at - run
			at++
			run = at
		}
		if n < run {
			copy(list[n:], list[run:])
		}
		kept = list[:n+len(list)-run]
	}
	spliced := len(kept) < len(list) || len(add) > 0
	if len(kept)+len(add) == 0 {
		return nil, spliced
	}
	return append(kept, add...), spliced
}

// RepairExpiries re-runs the candidate DP restricted to the sets containing
// at least one of the given delivery points, after those points' earliest
// task expiries changed, and updates the table in place: every candidate
// holding a changed point becomes a tombstone (see Candidate) and the
// regenerated candidates are appended, in the order the DP emits them.
// Every other candidate keeps its index, its struct and its maxSlack and
// setSize entries: a set's feasible sequences and Pareto frontier depend
// only on the expiries and geometry of its own points, so a full
// GenerateContext on the mutated instance would rebuild them bit-identically.
// The live table therefore holds exactly the candidates of a full re-run,
// bit for bit, though not at the same indices; ComparePayoff ranks them
// the same.
//
// The restricted DP explores exactly the states that can still reach a
// changed point: a state is kept when its set already contains one, or when
// the remaining size budget covers the ε-graph hop distance from its last
// point to the nearest changed point (a lower bound on any extension path,
// so the pruning never loses a candidate). On dense instances where every
// set can reach every point this degrades to the full DP; on ε-sparse
// instances it touches a small neighborhood of the changed points.
//
// Retained candidates keep pointing into the slabs they were built in, so a
// repair copies no candidate data, and it finds the candidates to drop
// through the generator's index by point (see pointIndex), which it extends
// with the appended candidates. Once the bytes dropped since the last
// compaction — tombstone entries and slab bytes — exceed the bytes the
// live candidates hold, or the table is full and holds at least half as
// many tombstones as live candidates, the repair compacts the table: it
// moves the live candidates down over the tombstones, in order, and copies
// them into fresh slabs, and the index is rebuilt at its next read. That is
// the only time a candidate's index moves. Table and slab memory stay
// within twice the live bytes, and the copy is amortized over many repairs.
//
// The generator must already be rebound to the mutated instance. On error
// (cancellation, ErrTooManySets) the candidate table is left untouched.
// Strategy lists built before the repair may hold dropped candidates, and
// after a compaction pre-repair indices; carry each over with
// SpliceStrategies.
func (g *Generator) RepairExpiries(ctx context.Context, points []int) (ExpiryRepair, error) {
	if len(points) == 0 {
		return ExpiryRepair{}, nil
	}
	in := g.inst
	d := g.newDP(g.stats.MaxSetSize)
	defer d.release()
	d.changed = bitset.New(len(in.Points))
	for _, p := range points {
		d.changed = d.changed.With(p)
	}
	d.hops = hopDistances(d.changed, d.nb.nbrs)

	dropped := g.holding(points)
	if err := d.run(ctx, g.opt.MaxSets, g.stats.Candidates-len(dropped)); err != nil {
		return ExpiryRepair{}, err
	}
	fresh := d.made.cands

	for _, ci := range dropped {
		b := g.candidates[ci].bytes()
		g.liveBytes -= b
		g.staleBytes += b
		g.candidates[ci] = Candidate{}
		g.maxSlack[ci] = math.Inf(-1)
		g.setSize[ci] = 0
		g.low[ci] = 0
	}
	g.liveBytes += d.made.bytes()
	g.stats.Candidates += fresh - len(dropped)
	live := g.stats.Candidates
	// A compaction cycle gathers about as many tombstones as there are live
	// candidates, so a table that must grow gets room for twice the live
	// count. A full table that already holds half that many tombstones
	// compacts instead of growing: a table-sized allocation just before the
	// compaction would set the memory peak.
	tombstones := len(g.candidates) - (live - fresh)
	full := len(g.candidates)+fresh > cap(g.candidates)
	rep := ExpiryRepair{dropped: len(dropped), gone: dropped}
	if g.staleBytes > g.liveBytes || full && 2*tombstones >= live {
		rep.remap, rep.gone = g.compact(), nil
		g.byPoint = nil
	}
	rep.fresh = len(g.candidates)
	g.reserveTable(fresh, 2*live)
	d.appendTable(g)
	rep.end = len(g.candidates)
	if g.byPoint != nil {
		g.byPoint = g.byPoint.push(g, rep.fresh)
	}
	return rep, nil
}

// compact removes the tombstones from the table in place: the live
// candidates move down over them, keeping their order, with their flat
// entries, and are copied into fresh slabs, so the table stops pinning the
// slabs of the candidates dropped since the last compaction. It returns the
// map from old to new indices, -1 for a tombstone.
func (g *Generator) compact() []int32 {
	remap := make([]int32, len(g.candidates))
	k := 0
	for ci, n := range g.setSize {
		if n == 0 {
			remap[ci] = -1
			continue
		}
		remap[ci] = int32(k)
		g.candidates[k], g.maxSlack[k], g.setSize[k], g.low[k] = g.candidates[ci], g.maxSlack[ci], n, g.low[ci]
		k++
	}
	clear(g.candidates[k:])
	g.candidates, g.maxSlack, g.setSize, g.low = g.candidates[:k], g.maxSlack[:k], g.setSize[:k], g.low[:k]
	reslab(g.candidates)
	g.staleBytes = 0
	return remap
}

// hopDistances returns each point's BFS hop distance to the nearest changed
// point over the successor lists succ, the generator's neighborhoods (0 for
// changed points). Their ε-ball lists are a superset of the ε-adjacency
// that can only under-estimate distances for metrics whose travel distance
// exceeds the Euclidean one, and the every-point lists put every point one
// hop from a changed one: an under-estimate weakens the pruning but never
// loses a reachable candidate. A point's hop is final when first set, so
// the search stops once every point has one: over the every-point lists,
// after one list.
func hopDistances(changed bitset.Set, succ [][]int) []int {
	n := len(succ)
	const far = 1 << 30
	hops := make([]int, n)
	queue := make([]int, 0, n)
	for p := 0; p < n; p++ {
		if changed.Has(p) {
			hops[p] = 0
			queue = append(queue, p)
		} else {
			hops[p] = far
		}
	}
	for qi := 0; qi < len(queue) && len(queue) < n; qi++ {
		p := queue[qi]
		for _, q := range succ[p] {
			if hops[q] > hops[p]+1 {
				hops[q] = hops[p] + 1
				queue = append(queue, q)
			}
		}
	}
	return hops
}

// pointIndex lists, for each delivery point, the table's candidates that
// hold it, in ascending index order, so that a repair reads the candidates
// its delta touched and no others. It is a stack of runs over consecutive
// ranges of the table, the oldest range first. Each run is an exact-size
// compressed table: point p's candidates in it are cands[start[p]:start[p+1]].
// It is built as one run over the whole table when a repair first reads
// it, extended by one run over the candidates each RepairExpiries appends,
// and dropped at a compaction, which renumbers the candidates, to be built
// again at its next read. A candidate that became a tombstone keeps its
// entries until its run is rebuilt; holding skips them. Whenever the run
// below the newest holds fewer than twice the newest's entries, the two are
// rebuilt as one, so each run holds at least twice the entries of the run
// above it, and a table of m entries is covered by O(log m) runs.
type pointIndex []pointRun

// pointRun is one run of a pointIndex, over the candidates from lo up to the
// next run's lo, or the end of the table.
type pointRun struct {
	lo    int
	start []int32
	cands []int32
}

// pointRun indexes the live candidates from lo to the end of the table.
func (g *Generator) pointRun(lo int) pointRun {
	n := len(g.inst.Points)
	start := make([]int32, n+1)
	for ci := lo; ci < len(g.candidates); ci++ {
		for _, p := range g.candidates[ci].Points {
			start[p+1]++
		}
	}
	for p := 0; p < n; p++ {
		start[p+1] += start[p]
	}
	// Fill each point's entries from its start, which then points at the
	// next point's start; shift the starts back up after.
	cands := make([]int32, start[n])
	for ci := lo; ci < len(g.candidates); ci++ {
		for _, p := range g.candidates[ci].Points {
			cands[start[p]] = int32(ci)
			start[p]++
		}
	}
	copy(start[1:], start[:n])
	start[0] = 0
	return pointRun{lo: lo, start: start, cands: cands}
}

// push extends the index with a run over the candidates from lo to the end
// of the table, and merges the newest runs while the one below the newest
// holds fewer than twice its entries.
func (ix pointIndex) push(g *Generator, lo int) pointIndex {
	if lo == len(g.candidates) {
		return ix
	}
	ix = append(ix, g.pointRun(lo))
	for k := len(ix); k >= 2 && len(ix[k-2].cands) < 2*len(ix[k-1].cands); k-- {
		ix[k-2] = g.pointRun(ix[k-2].lo)
		ix = ix[:k-1]
	}
	return ix
}

// IndexPoints builds the generator's index by point, which every repair
// reads, unless it is built already. A repair builds it when it first
// needs it, so a caller that will repair the generator may call IndexPoints
// first, to pay for the build up front instead of in the first repair.
func (g *Generator) IndexPoints() {
	if g.byPoint == nil {
		g.byPoint = pointIndex{g.pointRun(0)}
	}
}

// holding returns the live candidates that hold at least one of points, in
// ascending order, read from the index by point. The result is allocated
// once, at the size of the points' entries.
func (g *Generator) holding(points []int) []int32 {
	g.IndexPoints()
	n := 0
	for _, p := range points {
		for _, r := range g.byPoint {
			n += int(r.start[p+1] - r.start[p])
		}
	}
	out := make([]int32, 0, n)
	for _, p := range points {
		for _, r := range g.byPoint {
			for _, ci := range r.cands[r.start[p]:r.start[p+1]] {
				if g.setSize[ci] != 0 {
					out = append(out, ci)
				}
			}
		}
	}
	if len(points) > 1 {
		// A candidate holding several of the points was listed under each.
		slices.Sort(out)
		out = slices.Compact(out)
	}
	return out
}
