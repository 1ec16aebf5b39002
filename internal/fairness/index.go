package fairness

import (
	"fmt"
	"sort"
)

// Index answers IAU queries incrementally. The reference MP/LP/IAU functions
// rescan every payoff on every call, so one best-response round of the game
// package costs O(W^2 * S). The index instead keeps the current payoffs in an
// order-statistics structure — a sorted multiset with prefix sums — and
// answers
//
//	"IAU of worker w if its payoff became p, all others fixed"
//
// in O(log W): binary-search p's rank among the W stored values, then
//
//	MP = (sum of payoffs above p) - (count above p) * p
//	LP = (count below p) * p - (sum of payoffs below p)
//
// from two prefix-sum differences, excluding w's own stored value. Both
// searches touch a contiguous W-element array, so at game scale they are
// also far cheaper in cache traffic than the reference's O(W) scan.
//
// Update replaces one value in the sorted array (O(W) memmove) and rebuilds
// the prefix sums; updates happen once per actual strategy switch while
// queries happen once per candidate strategy, so the asymmetric costs
// favor the query side by orders of magnitude.
//
// Invariants:
//   - The multiset always holds exactly one value per worker (workers start
//     at 0 and move via Update), so exclusion of the querying worker is a
//     single comparison against its stored value.
//   - The prefix sums are recomputed from the sorted array after every
//     update — a pure function of the current multiset, never of the update
//     history — so equal states yield bit-equal query results regardless of
//     the switch sequence that produced them, a property the deterministic
//     same-seed solver tests rely on.
//
// Results can differ from the reference scan in the last few ulps (the
// reference accumulates (p_j - p_i) terms in worker order; the index sums
// payoffs in ascending order and subtracts count*p once). Differential tests
// in this package bound that divergence and the game/evo packages pin solver
// decisions bit-exactly against the retained reference implementations.
//
// Concurrency: the query methods — Utility, Inequity, CurrentUtility,
// Payoff, Potential, All, Workers — are pure reads and safe to call from
// any number of goroutines concurrently, as long as no Update runs at the
// same time. Update mutates the multiset and must be externally serialized
// against both other updates and all queries.
type Index struct {
	prm Params
	// priorities holds the raw worker priorities for the priority-aware
	// extension (normalization treats values <= 0 as 1, like PriorityIAU),
	// or nil for the plain IAU.
	priorities []float64
	// scale terms, precomputed with the same association the reference
	// IAU uses (alpha*scale and beta*scale each rounded once).
	aScale, bScale float64
	// vals is the sorted multiset of the workers' current normalized
	// payoffs (len = worker count).
	vals []float64
	// pre[i] is the sum of vals[:i] (len = worker count + 1).
	pre []float64
	// raw[w] is worker w's stored raw payoff; cur[w] its normalized value.
	raw, cur []float64
}

// NewIndex builds an index for n workers, all starting at payoff 0.
// priorities enables the priority-aware IAU (one raw priority per worker,
// values <= 0 normalize as 1); nil selects the plain IAU.
func NewIndex(prm Params, n int, priorities []float64) *Index {
	if priorities != nil && len(priorities) != n {
		panic(fmt.Sprintf("fairness: %d priorities for %d workers", len(priorities), n))
	}
	ix := &Index{
		prm:        prm,
		priorities: priorities,
		vals:       make([]float64, n),
		pre:        make([]float64, n+1),
		raw:        make([]float64, n),
		cur:        make([]float64, n),
	}
	if n >= 2 {
		scale := 1 / float64(n-1)
		ix.aScale = prm.Alpha * scale
		ix.bScale = prm.Beta * scale
	}
	return ix
}

// Workers returns the number of workers the index tracks.
func (ix *Index) Workers() int { return len(ix.raw) }

// normalize maps a raw payoff of worker w to the value space the multiset
// orders by (identical to the reference PriorityIAU normalization).
func (ix *Index) normalize(w int, p float64) float64 {
	if ix.priorities == nil {
		return p
	}
	return NormalizedPayoff(p, ix.priorities[w])
}

// Update sets worker w's payoff to p: remove the old normalized value from
// the sorted multiset, insert the new one, rebuild the prefix sums.
func (ix *Index) Update(w int, p float64) {
	vn := ix.normalize(w, p)
	ix.raw[w] = p
	if vn == ix.cur[w] {
		return
	}
	n := len(ix.vals)
	pos := sort.SearchFloat64s(ix.vals, ix.cur[w])
	copy(ix.vals[pos:], ix.vals[pos+1:])
	ins := sort.SearchFloat64s(ix.vals[:n-1], vn)
	copy(ix.vals[ins+1:], ix.vals[ins:n-1])
	ix.vals[ins] = vn
	ix.cur[w] = vn
	for i, v := range ix.vals {
		ix.pre[i+1] = ix.pre[i] + v
	}
}

// Payoff returns worker w's stored raw payoff.
func (ix *Index) Payoff(w int) float64 { return ix.raw[w] }

// upperBound returns the first index in the sorted slice a with a value
// strictly greater than v. (sort.Search would need a capturing closure,
// which the hot path must not allocate.)
func upperBound(a []float64, v float64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Inequity returns the MP and LP terms (Equations 6-7) worker w would incur
// if its payoff became p, the other workers' stored payoffs fixed. Both are
// clamped at 0 so rounding in the aggregate form can never turn a penalty
// into a reward.
func (ix *Index) Inequity(w int, p float64) (mp, lp float64) {
	pn := ix.normalize(w, p)
	n := len(ix.vals)
	// lo = first rank >= pn, hi = first rank > pn; values equal to pn
	// belong to neither penalty.
	lo := sort.SearchFloat64s(ix.vals, pn)
	hi := lo
	if hi < n && ix.vals[hi] == pn {
		hi = upperBound(ix.vals, pn)
	}
	sumBelow, cntBelow := ix.pre[lo], lo
	sumAbove, cntAbove := ix.pre[n]-ix.pre[hi], n-hi
	// Exclude the querying worker's own stored value.
	if cw := ix.cur[w]; cw > pn {
		sumAbove -= cw
		cntAbove--
	} else if cw < pn {
		sumBelow -= cw
		cntBelow--
	}
	mp = sumAbove - float64(cntAbove)*pn
	lp = float64(cntBelow)*pn - sumBelow
	if mp < 0 {
		mp = 0
	}
	if lp < 0 {
		lp = 0
	}
	return mp, lp
}

// Utility returns worker w's IAU (Equation 5, or the priority-aware variant
// when the index was built with priorities) if its payoff became p, all other
// workers fixed at their stored payoffs. It is the O(log W) counterpart of
//
//	scratch := append([]float64(nil), payoffs...)
//	scratch[w] = p
//	IAU(prm, scratch, w)      // or PriorityIAU
//
// and never allocates.
func (ix *Index) Utility(w int, p float64) float64 {
	if len(ix.raw) < 2 {
		return p
	}
	mp, lp := ix.Inequity(w, p)
	return p - ix.aScale*mp - ix.bScale*lp
}

// CurrentUtility returns worker w's IAU at its stored payoff.
func (ix *Index) CurrentUtility(w int) float64 {
	return ix.Utility(w, ix.raw[w])
}

// All fills dst (grown as needed) with every worker's IAU at the stored
// payoffs in O(W log W), the fast counterpart of the reference All.
func (ix *Index) All(dst []float64) []float64 {
	n := len(ix.raw)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for w := range dst {
		dst[w] = ix.CurrentUtility(w)
	}
	return dst
}

// Potential returns Phi = sum of stored-payoff IAUs (Lemma 2) in
// O(W log W) instead of the reference's O(W^2). The value can differ from
// Potential(prm, payoffs) in the final ulps; consumers that require the
// reference rounding bit-for-bit (the solver traces) keep calling the
// reference function.
func (ix *Index) Potential() float64 {
	var phi float64
	for w := range ix.raw {
		phi += ix.CurrentUtility(w)
	}
	return phi
}
