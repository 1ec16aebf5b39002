package vdps

import (
	"context"
	"math"

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
// The touched points form one bit set, and a candidate is affected iff its
// Mask intersects it, a word-wise AND. Each affected reward is recomputed from scratch by summing the
// point rewards in ascending point order — exactly the accumulation order a
// cold Generate uses — so a repaired generator is bit-identical to a freshly
// generated one on every field the solvers read.
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
	var changed []int
	for ci := range g.candidates {
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
	// Remap maps every pre-repair candidate index to its post-repair index.
	// A -1 entry marks a dropped candidate (it contained a changed point).
	// Retained candidates keep their identity: points, frontier and reward
	// are untouched, only the index moves.
	Remap []int
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
// lists with Remap, and rebuild the lists of workers holding a dropped
// candidate (a -1 in Remap) or gaining a Fresh one.
func (g *Generator) RepairExpiries(ctx context.Context, points []int) (ExpiryRepair, error) {
	if len(points) == 0 {
		remap := make([]int, len(g.candidates))
		for i := range remap {
			remap[i] = i
		}
		return ExpiryRepair{Remap: remap}, nil
	}
	in := g.inst
	d := newDP(in, g.opt, g.stats.MaxSetSize)
	d.changed = bitset.New(len(in.Points))
	for _, p := range points {
		d.changed = d.changed.With(p)
	}
	d.hops = hopDistances(in, d.changed, d.succ, d.eps)

	retained := 0
	for ci := range g.candidates {
		if !g.candidates[ci].Mask.Intersects(d.changed) {
			retained++
		}
	}
	fresh, err := d.run(ctx, g.opt.MaxSets, retained)
	if err != nil {
		return ExpiryRepair{}, err
	}

	// Splice the regenerated candidates into the retained table in candLess
	// order — the order the DP emits them in — so the repaired table is
	// bit-identical to a full re-run.
	rep := ExpiryRepair{Remap: make([]int, len(g.candidates))}
	merged := make([]Candidate, 0, retained+len(fresh))
	fi := 0
	for ci := range g.candidates {
		c := &g.candidates[ci]
		if c.Mask.Intersects(d.changed) {
			rep.Remap[ci] = -1
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

	// Re-slab the spliced table: retained candidates would otherwise pin the
	// slabs of every earlier run, and a long stream would keep them all.
	reslab(merged)
	g.candidates = merged
	g.finish()
	return rep, nil
}

// hopDistances returns each point's BFS hop distance to the nearest changed
// point over the ε-adjacency graph (0 for changed points). The adjacency
// used is the Euclidean-ball superset the DP's grid index provides, which
// can only under-estimate distances for metrics whose travel distance
// exceeds the Euclidean one — an under-estimate weakens the pruning but
// never loses a reachable candidate. With ε disabled every pair is adjacent.
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
