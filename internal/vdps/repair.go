package vdps

import (
	"context"
	"math"

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
// The touched points form one bit set, and a candidate is affected iff its
// Mask intersects it, a word-wise AND, tested only when the candidate's fold
// meets the touched set's: the scan reads the flat fold array and loads few
// candidate structs, and a tombstone's zero fold meets nothing. Each
// affected reward is
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
	touched := bitset.New(len(g.inst.Points))
	for _, p := range points {
		touched = touched.With(p)
	}
	tf := touched.Fold()
	var changed []int
	for ci, f := range g.fold {
		if f&tf == 0 {
			continue
		}
		c := &g.candidates[ci]
		if !c.Mask.Intersects(touched) {
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

// RepairStrategyPayoffs recomputes, in place, the payoff of every entry of
// worker w's cached strategy list whose candidate is marked in repriced (a
// mask over the candidate table, typically built from RepairRewards'
// return), and reports whether any entry was marked. Every other entry is
// left alone: its payoff is already exact as long as its candidate's reward
// and frontier did not change and neither did the worker's location, MaxDP
// and speed, which is the caller's contract. Reward changes cannot alter
// which candidates are feasible for a worker or which frontier entry is
// fastest (both depend only on expiries and geometry), so the list's
// (candidate, entry) membership and its ascending candidate order stay
// exact too. Each recomputed payoff uses WorkerStrategies' expression (its
// factor-1 branch omits the product, which is exact at factor 1), so the
// repaired list is bit-identical to a fresh WorkerStrategies call. Callers
// own the transactional consequences of the in-place write (the streaming
// engine's dirty-flag protocol).
func (g *Generator) RepairStrategyPayoffs(w int, refs []StrategyRef, repriced []bool) bool {
	approach := g.inst.ApproachTime(w)
	factor := g.inst.SpeedFactor(w)
	marked := false
	for i := range refs {
		if !repriced[refs[i].Cand] {
			continue
		}
		marked = true
		c := &g.candidates[refs[i].Cand]
		refs[i].Payoff = c.Reward / (approach + factor*c.Frontier[refs[i].Entry].Time)
	}
	return marked
}

// workerRule holds what WorkerStrategies reads about one worker.
type workerRule struct {
	w                int
	approach, factor float64
	maxDP            int32
}

// ruleFor reads worker w's rule inputs from the generator's instance.
func (g *Generator) ruleFor(w int) workerRule {
	return workerRule{
		w:        w,
		approach: g.inst.ApproachTime(w),
		factor:   g.inst.SpeedFactor(w),
		maxDP:    int32(g.inst.Workers[w].MaxDP),
	}
}

// strategy is WorkerStrategies' rule for one candidate: the StrategyRef it
// includes for worker r.w and candidate ci, or false when it includes none.
// The set must respect the worker's MaxDP; a default-speed worker needs
// maxSlack to cover its approach time and takes the fastest state that
// does, any other worker the fastest sequence it can execute at its own
// speed; and the total travel time must be positive. The payoff expression
// is WorkerStrategies' (at factor 1 the product is exact).
// TestFeasibleForMatchesEnumeration pins the two against each other.
func (g *Generator) strategy(r workerRule, ci int) (StrategyRef, bool) {
	if r.maxDP > 0 && g.setSize[ci] > r.maxDP {
		return StrategyRef{}, false
	}
	c := &g.candidates[ci]
	var fi int
	if r.factor == 1 {
		if !(g.maxSlack[ci] >= r.approach) {
			return StrategyRef{}, false
		}
		fi, _ = c.bestForIndex(r.approach)
	} else {
		var ok bool
		if fi, ok = c.bestForScaledIndex(g.inst, r.w); !ok {
			return StrategyRef{}, false
		}
	}
	total := r.approach + r.factor*c.Frontier[fi].Time
	if total <= 0 {
		return StrategyRef{}, false
	}
	return StrategyRef{Payoff: c.Reward / total, Cand: int32(ci), Entry: int32(fi)}, true
}

// ExpiryRepair records the candidate-table surgery of one RepairExpiries
// call, which SpliceStrategies needs to carry a strategy list built before
// it over to the repaired table. The zero value is the identity: no
// candidate was dropped, appended or moved.
type ExpiryRepair struct {
	// dropped counts the candidates the repair turned into tombstones:
	// every live candidate containing a changed point.
	dropped int
	// fresh and end bound the indices of the regenerated candidates — every
	// candidate containing at least one changed point that is feasible
	// under the new expiries — which the repair appended to the table.
	fresh, end int
	// remap is nil unless the repair compacted the table. It then maps every
	// pre-repair candidate index to its post-repair index, -1 for a
	// tombstone; live candidates keep their order, so it is monotonic.
	remap []int32
}

// index returns the post-repair index of pre-repair candidate ci, or -1 when
// the repair dropped it. Outside a compaction a candidate keeps its index,
// and one the repair dropped is now a tombstone.
func (rep *ExpiryRepair) index(g *Generator, ci int32) int32 {
	if rep.remap != nil {
		return rep.remap[ci]
	}
	if g.setSize[ci] == 0 {
		return -1
	}
	return ci
}

// SpliceStrategies carries worker w's strategy list, as WorkerStrategies
// built it before the expiry repair rep, over to the repaired table: it
// drops the entries of dropped candidates and appends the regenerated
// candidates the worker can take, priced by WorkerStrategies' rule. The
// list holds ascending candidate indices and the regenerated candidates
// were appended after every retained one, so the result ascends too. A
// compaction renumbers the retained entries through its monotonic remap,
// which keeps their order. The result equals a fresh WorkerStrategies call
// as long as the worker's location, MaxDP and speed did not change; a
// retained entry keeps its payoff, so after a reward change it still needs
// RepairStrategyPayoffs.
//
// It reports whether the list's membership changed. A list that neither
// lost nor gained an entry is returned as it is, renumbered in place if
// the repair compacted the table; otherwise the input is left alone and a
// new exact-size list is returned. Callers own the transactional
// consequences of the in-place write, as with RepairStrategyPayoffs.
func (g *Generator) SpliceStrategies(w int, list []StrategyRef, rep ExpiryRepair, sc *StrategyScratch) ([]StrategyRef, bool) {
	if rep.dropped == 0 && rep.fresh == rep.end {
		return list, false
	}
	r := g.ruleFor(w)
	add := sc.keys[:0]
	for ci := rep.fresh; ci < rep.end; ci++ {
		if ref, ok := g.strategy(r, ci); ok {
			add = append(add, ref)
		}
	}
	sc.keys = add
	kept := 0
	for i := range list {
		if rep.index(g, list[i].Cand) >= 0 {
			kept++
		}
	}
	if kept == len(list) && len(add) == 0 {
		if rep.remap != nil {
			for i := range list {
				list[i].Cand = rep.remap[list[i].Cand]
			}
		}
		return list, false
	}
	if kept+len(add) == 0 {
		return nil, true
	}
	out := make([]StrategyRef, 0, kept+len(add))
	for _, ref := range list {
		if ref.Cand = rep.index(g, ref.Cand); ref.Cand >= 0 {
			out = append(out, ref)
		}
	}
	return append(out, add...), true
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
// repair copies no candidate data, and its only work proportional to the
// table is the scan for the dropped candidates, which tests the flat fold
// array before it loads a struct. Once the bytes dropped since the last
// compaction — tombstone entries and slab bytes — exceed the bytes the
// live candidates hold, or the table is full and holds at least half as
// many tombstones as live candidates, the repair compacts the table: it
// moves the live candidates down over the tombstones, in order, and copies
// them into fresh slabs. That is the only time a candidate's index moves.
// Table and slab memory stay within twice the live bytes, and the copy is
// amortized over many repairs.
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
	d.changed = bitset.New(len(in.Points))
	for _, p := range points {
		d.changed = d.changed.With(p)
	}
	d.hops = hopDistances(in, d.changed, g.neighborhoods(), d.eps)

	var dropped []int
	cf := d.changed.Fold()
	for ci, f := range g.fold {
		if f&cf != 0 && g.candidates[ci].Mask.Intersects(d.changed) {
			dropped = append(dropped, ci)
		}
	}
	fresh, err := d.run(ctx, g.opt.MaxSets, g.stats.Candidates-len(dropped))
	if err != nil {
		return ExpiryRepair{}, err
	}

	for _, ci := range dropped {
		b := g.candidates[ci].bytes()
		g.liveBytes -= b
		g.staleBytes += b
		g.candidates[ci] = Candidate{}
		g.maxSlack[ci] = math.Inf(-1)
		g.setSize[ci] = 0
		g.fold[ci] = 0
	}
	for i := range fresh {
		g.liveBytes += fresh[i].bytes()
	}
	g.stats.Candidates += len(fresh) - len(dropped)
	live := g.stats.Candidates
	// A compaction cycle gathers about as many tombstones as there are live
	// candidates, so a table that must grow gets room for twice the live
	// count. A full table that already holds half that many tombstones
	// compacts instead of growing: a table-sized allocation just before the
	// compaction would set the memory peak.
	tombstones := len(g.candidates) - (live - len(fresh))
	full := len(g.candidates)+len(fresh) > cap(g.candidates)
	rep := ExpiryRepair{dropped: len(dropped)}
	if g.staleBytes > g.liveBytes || full && 2*tombstones >= live {
		rep.remap = g.compact()
	}
	rep.fresh = len(g.candidates)
	g.candidates = append(reserve(g.candidates, len(fresh), 2*live), fresh...)
	g.maxSlack = reserve(g.maxSlack, len(fresh), 2*live)
	g.setSize = reserve(g.setSize, len(fresh), 2*live)
	g.fold = reserve(g.fold, len(fresh), 2*live)
	for i := range fresh {
		g.maxSlack = append(g.maxSlack, fresh[i].MaxSlack())
		g.setSize = append(g.setSize, int32(len(fresh[i].Points)))
		g.fold = append(g.fold, fresh[i].Mask.Fold())
	}
	rep.end = len(g.candidates)
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
		g.candidates[k], g.maxSlack[k], g.setSize[k], g.fold[k] = g.candidates[ci], g.maxSlack[ci], n, g.fold[ci]
		k++
	}
	clear(g.candidates[k:])
	g.candidates, g.maxSlack, g.setSize, g.fold = g.candidates[:k], g.maxSlack[:k], g.setSize[:k], g.fold[:k]
	reslab(g.candidates)
	g.staleBytes = 0
	return remap
}

// hopDistances returns each point's BFS hop distance to the nearest changed
// point over the ε-adjacency graph (0 for changed points). The adjacency
// used is the generator's Euclidean-ball neighbourhoods, a superset that can
// only under-estimate distances for metrics whose travel distance exceeds
// the Euclidean one — an under-estimate weakens the pruning but never loses
// a reachable candidate. With ε disabled every pair is adjacent.
func hopDistances(in *model.Instance, changed bitset.Set, neighbors [][]int, eps float64) []int {
	n := len(in.Points)
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
	if math.IsInf(eps, 1) {
		for p := range hops {
			if hops[p] != 0 {
				hops[p] = 1
			}
		}
		return hops
	}
	for qi := 0; qi < len(queue); qi++ {
		p := queue[qi]
		for _, q := range neighbors[p] {
			if hops[q] > hops[p]+1 {
				hops[q] = hops[p] + 1
				queue = append(queue, q)
			}
		}
	}
	return hops
}
