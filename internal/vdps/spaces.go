package vdps

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// StrategySpaces returns every worker's strategy list, indexed by worker:
// list w is exactly what WorkerStrategies returns for w — the same entries,
// bit for bit, in ascending candidate order, nil when empty — and each list
// is one allocation of its final size. The build runs over par goroutines;
// par <= 1, or fewer than two workers per goroutine, builds on the caller's.
//
// A default-speed worker with approach time a holds exactly the candidates
// within its MaxDP whose maxSlack covers a, each at its first frontier entry
// whose slack covers a. Those sets are nested in a, so the build orders the
// default-speed workers by (MaxDP, approach time) and derives each worker's
// list from its predecessor's in that order (see chain), scanning the
// candidate table only for the first worker of each run. The order is cut
// into par contiguous runs of about equal list-size bound. A worker with a
// speed override is re-checked against the model sequence by sequence, so
// it keeps WorkerStrategies' own scan.
func (g *Generator) StrategySpaces(par int) [][]StrategyRef {
	n := len(g.inst.Workers)
	lists := make([][]StrategyRef, n)
	order, bound := g.buildOrder()
	if par < 1 || n < 2*par {
		par = 1
	}
	starts := shardStarts(bound, par)
	var wg sync.WaitGroup
	for k := 1; k < par; k++ {
		lo, hi := starts[k-1], starts[k]
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.buildRun(lists, order[lo:hi], bound[lo:hi])
		}()
	}
	lo := starts[par-1]
	g.buildRun(lists, order[lo:], bound[lo:])
	wg.Wait()
	return lists
}

// chainable reports whether the worker's list is a threshold in its
// approach time: a default speed and an approach time that compares.
func (r workerRule) chainable() bool {
	return r.factor == 1 && !math.IsNaN(r.approach)
}

// buildOrder returns every worker's rule in build order, with each worker's
// list-size bound: chainable workers first, by (MaxDP, approach time,
// index), then the rest by index. A chainable worker's bound is the number
// of candidates within its MaxDP whose maxSlack covers its approach time;
// any other worker's is the table size.
func (g *Generator) buildOrder() ([]workerRule, []int) {
	n := len(g.inst.Workers)
	order := make([]workerRule, 0, n)
	var rest []workerRule
	for w := 0; w < n; w++ {
		if r := g.ruleFor(w); r.chainable() {
			order = append(order, r)
		} else {
			rest = append(rest, r)
		}
	}
	slices.SortFunc(order, func(a, b workerRule) int {
		return cmp.Or(cmp.Compare(a.maxDP, b.maxDP), cmp.Compare(a.approach, b.approach), a.w-b.w)
	})
	chained := len(order)
	order = append(order, rest...)
	bound := make([]int, n)
	for lo := 0; lo < chained; {
		hi := lo + 1
		for hi < chained && order[hi].maxDP == order[lo].maxDP {
			hi++
		}
		g.countCovering(order[lo:hi], bound[lo:hi])
		lo = hi
	}
	for k := chained; k < n; k++ {
		bound[k] = len(g.candidates)
	}
	return order, bound
}

// countCovering sets bound[k] to the number of candidates within the run's
// MaxDP whose maxSlack covers run[k]'s approach time. The run shares one
// MaxDP and ascends in approach time, so each candidate covers a prefix of
// it: one binary search per candidate finds the prefix's last worker, and a
// suffix sum turns those counts into bounds.
func (g *Generator) countCovering(run []workerRule, bound []int) {
	maxDP := run[0].maxDP
	for ci, ms := range g.maxSlack {
		if maxDP > 0 && g.setSize[ci] > maxDP {
			continue
		}
		lo, hi := 0, len(run)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if run[m].approach <= ms {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if lo > 0 {
			bound[lo-1]++
		}
	}
	for k := len(bound) - 2; k >= 0; k-- {
		bound[k] += bound[k+1]
	}
}

// shardStarts cuts the build order into par contiguous runs of about equal
// weight, a worker weighing its list-size bound plus one, and returns each
// run's first index. A run may be empty.
func shardStarts(bound []int, par int) []int {
	total := 0
	for _, b := range bound {
		total += b + 1
	}
	starts := make([]int, 1, par)
	acc := 0
	for k, b := range bound {
		for len(starts) < par && acc*par >= len(starts)*total {
			starts = append(starts, k)
		}
		acc += b + 1
	}
	for len(starts) < par {
		starts = append(starts, len(bound))
	}
	return starts
}

// buildRun builds the lists of one run of the build order. A worker chains
// from its predecessor when both are chainable, share a MaxDP and the
// predecessor's approach time is positive (see chain). Otherwise a
// chainable worker with a positive approach time scans the table straight
// into a list of its bound, which is then its exact size, and any other
// worker takes WorkerStrategies' gather and copy.
func (g *Generator) buildRun(lists [][]StrategyRef, run []workerRule, bound []int) {
	var sc StrategyScratch
	for k, r := range run {
		var list []StrategyRef
		switch {
		case k > 0 && chains(run[k-1], r):
			list = g.chain(lists[run[k-1].w], r, bound[k])
		case r.chainable() && r.approach > 0:
			list = g.gather(r, make([]StrategyRef, 0, bound[k]))
		default:
			list = g.WorkerStrategies(r.w, &sc)
		}
		if len(list) == 0 {
			list = nil
		}
		lists[r.w] = list
	}
}

// chains reports whether worker r's list can be derived from that of p,
// its predecessor in build order (see chain).
func chains(p, r workerRule) bool {
	return p.chainable() && r.chainable() && p.maxDP == r.maxDP && p.approach > 0
}

// chain derives worker r's list from prev, the list of its predecessor p in
// build order, into a list of capacity size. It relies on three facts:
//
//  1. p's approach time a_p is at most r's, a. maxSlack >= a implies
//     maxSlack >= a_p, so r's candidates are among p's. The frontier
//     ascends in both time and slack, so the first entry whose slack covers
//     a is at or after the one that covers a_p: r's entry is found by
//     advancing from p's, never from 0.
//  2. p has r's MaxDP, so every entry of prev already passes the size
//     filter.
//  3. a_p > 0. A total travel time approach + time is at most 0 only at
//     approach 0 with a zero-time entry — a worker standing at the center
//     and a point located at the center, both of which model.Validate
//     allows. Such a candidate is missing from an approach-0 worker's list
//     but belongs to its successor's, so a run restarts after a predecessor
//     whose approach is not positive. With a_p > 0 no candidate was left out
//     of prev for its total, and every total of r is positive.
//
// Each kept entry is re-priced with WorkerStrategies' expression, so the
// list is bit-identical to WorkerStrategies(r.w); prev's order carries over,
// so it ascends in candidate index too. With a positive a, size — r's
// bound — is the list's exact length.
func (g *Generator) chain(prev []StrategyRef, r workerRule, size int) []StrategyRef {
	a := r.approach
	out := make([]StrategyRef, 0, size)
	for _, ref := range prev {
		if g.maxSlack[ref.Cand] < a {
			continue
		}
		c := &g.candidates[ref.Cand]
		fi := ref.Entry
		for c.Frontier[fi].Slack < a {
			fi++
		}
		total := a + c.Frontier[fi].Time
		out = append(out, StrategyRef{Payoff: c.Reward / total, Cand: ref.Cand, Entry: fi})
	}
	return out
}
