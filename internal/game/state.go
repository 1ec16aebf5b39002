// Package game formulates FTA as an n-player strategic game (paper §V) and
// implements the Fairness-aware Game-Theoretic (FGT) best-response algorithm
// (Algorithm 2). The State type — strategy spaces, current joint strategy,
// delivery-point ownership and payoffs — is shared with the evolutionary
// algorithm in package evo.
package game

import (
	"math/rand"
	"runtime"
	"slices"

	"fairtask/internal/model"
	"fairtask/internal/payoff"
	"fairtask/internal/vdps"
)

// Null is the strategy index meaning "select no delivery points".
const Null = -1

// State is the mutable state of an FTA game: each worker's strategy space
// (its valid VDPSs), the current joint strategy, the delivery-point owner
// table enforcing disjointness, and the induced payoffs.
type State struct {
	gen *vdps.Generator
	// Strategies[w] lists worker w's valid VDPSs in compact reference form,
	// in ascending candidate order as vdps.Generator.WorkerStrategies
	// gathers them (SortByPayoff reorders a fresh state). No reader relies
	// on the order: each applies Generator.ComparePayoff where it needs one. The
	// 16-byte pointer-free references keep the strategy space — the
	// dominant allocation of a solve — cheap to build and invisible to the
	// garbage collector; resolve sequences on demand with StrategySeq.
	Strategies [][]vdps.StrategyRef
	// Current[w] is the index into Strategies[w] of w's chosen strategy, or
	// Null.
	Current []int
	// Payoffs[w] is the payoff of w's current strategy (0 for Null).
	Payoffs []float64
	// owner[p] is the worker currently holding delivery point p, or -1.
	owner []int
	// free counts the points no worker holds; Switch keeps it.
	free int
	// byLow groups the generator's live candidates by lowest point: group p
	// is byLow[lowStart[p]:lowStart[p+1]], in table order. walkTop builds
	// both on its first call.
	byLow, lowStart []int32
}

// NewState builds a game state with empty strategy choices from the
// generator's per-worker VDPS lists, built in one batch by
// vdps.Generator.StrategySpaces over runtime.GOMAXPROCS(0) goroutines. Each
// list is what Generator.WorkerStrategies returns for its worker, whatever
// the goroutine count.
func NewState(g *vdps.Generator) *State {
	return newState(g, runtime.GOMAXPROCS(0))
}

// newState is NewState with the strategy spaces built over par goroutines.
func newState(g *vdps.Generator, par int) *State {
	return NewStateWithStrategies(g, g.StrategySpaces(par))
}

// NewStateWithStrategies builds a game state over prebuilt per-worker
// strategy spaces instead of deriving them from the generator. strategies
// must have one entry per instance worker, each holding exactly what
// Generator.WorkerStrategies would return for that worker against g, in any
// order: each candidate the worker's vdps.Rule admits once, priced by that
// rule bit for bit. RandomInit and TopAvailable rely on it: both may find a
// strategy from the candidate table and the rule, and only then look its
// candidate up in the list. The streaming engine caches those lists across
// deltas and rebuilds only the workers whose feasible VDPS sets changed, so
// state construction becomes a slice-header copy instead of a
// strategy-space build. The strategy slices are shared, not copied: a
// solver that sorts them (SortByPayoff) sorts the caller's lists, and FGT
// and IEGT never do. It panics on a worker-count mismatch, which is always
// a caller bug.
func NewStateWithStrategies(g *vdps.Generator, strategies [][]vdps.StrategyRef) *State {
	in := g.Instance()
	if len(strategies) != len(in.Workers) {
		panic("game: NewStateWithStrategies: strategy spaces do not match worker count")
	}
	n := len(in.Workers)
	s := &State{
		gen:        g,
		Strategies: strategies,
		Current:    make([]int, n),
		Payoffs:    make([]float64, n),
		owner:      make([]int, len(in.Points)),
		free:       len(in.Points),
	}
	for w := 0; w < n; w++ {
		s.Current[w] = Null
	}
	for p := range s.owner {
		s.owner[p] = -1
	}
	return s
}

// Instance returns the underlying problem instance.
func (s *State) Instance() *model.Instance { return s.gen.Instance() }

// Generator returns the VDPS generator backing the state.
func (s *State) Generator() *vdps.Generator { return s.gen }

// points returns the delivery-point set of worker w's strategy si.
func (s *State) points(w, si int) []int {
	return s.gen.RefPoints(s.Strategies[w][si])
}

// StrategySeq returns the visiting sequence of worker w's strategy si. The
// route is shared with the generator; callers must not modify it.
func (s *State) StrategySeq(w, si int) model.Route {
	return s.gen.RefSeq(s.Strategies[w][si])
}

// Available reports whether worker w could switch to strategy si without
// overlapping another worker's current delivery points. The worker's own
// current points do not block the switch. si == Null is always available.
func (s *State) Available(w, si int) bool {
	return si == Null || s.reachable(w, s.points(w, si))
}

// TopAvailable returns the best strategy under Generator.ComparePayoff —
// highest payoff, the candidate first in the candidates' own order on ties
// — among those w could hold now, or Null when none is. The incumbent
// counts as available.
//
// It reaches that argmax one of two ways and takes the one expected to read
// less. scanTop reads worker w's whole list; walkTop reads only the live
// candidates whose lowest point is free or w's own, which are the only ones
// w could hold. The reachable points start about reach/points of the live
// candidates, so walkTop is chosen when that share is below the list's
// length: in a crowded game, where nearly every point is held, it reads a
// few hundred candidates instead of thousands of entries. The choice reads
// four counts the state holds — the free points, the incumbent's set size,
// the live candidates and the list's length — and nothing that is built on
// demand, so a state whose calls all scan never builds walkTop's index.
// Both ways return the same index: ComparePayoff is a strict total order on
// a worker's strategies, and walkTop prices each candidate with the rule
// that priced its list entry (see NewStateWithStrategies).
func (s *State) TopAvailable(w int) int {
	if s.walks(w) {
		return s.walkTop(w)
	}
	return s.scanTop(w)
}

// walks reports whether TopAvailable takes walkTop for worker w.
func (s *State) walks(w int) bool {
	reach := s.free
	if cur := s.Current[w]; cur != Null {
		reach += int(s.gen.SetSize(s.Strategies[w][cur].Cand))
	}
	return reach*s.gen.Stats().Candidates < len(s.Strategies[w])*len(s.owner)
}

// scanTop is TopAvailable over worker w's list, in list order. The running
// top starts at the incumbent, and availability is checked only for an
// entry that beats the best found so far: at an equilibrium that is exactly
// the entries better than the incumbent, wherever the list holds it.
//
// The running top's payoff stays in a local, and the skip test is
// ComparePayoff written out: an entry is skipped iff
// ComparePayoff(entry, top) >= 0, which is p < tp, or !(p > tp) and the
// comparator's verdict. The comparator thus runs only on an exact payoff
// tie (the incumbent's own entry included), and a NaN payoff behaves as it
// does under ComparePayoff. The plain
// p < tp test comes first and alone, so the common case compiles to one
// compare and branch. TestTopAvailableMatchesComparePayoff pins the two
// against each other.
//
// An entry that beats the top is first tested on its candidate's lowest
// point (Generator.LowestPoints): when another worker holds it, the entry
// is not available, and Available is not called. That rejects most entries
// of a contended round on two flat loads, without loading the candidate.
// The test stays out of Available, which must stay cheap enough to inline.
func (s *State) scanTop(w int) int {
	list := s.Strategies[w]
	low, owner := s.gen.LowestPoints(), s.owner
	top := s.Current[w]
	var tp float64
	if top != Null {
		tp = list[top].Payoff
	}
	for si := range list {
		if top != Null {
			p := list[si].Payoff
			if p < tp {
				continue
			}
			if !(p > tp) && s.gen.ComparePayoff(list[si], list[top]) >= 0 {
				continue
			}
		}
		if o := owner[low[list[si].Cand]]; o != -1 && o != w {
			continue
		}
		if s.Available(w, si) {
			top, tp = si, list[si].Payoff
		}
	}
	return top
}

// walkTop is TopAvailable over the candidate table. For each point that is
// free or w's own it reads the live candidates whose lowest point it is,
// keeps those whose every point is free or w's own, prices each with w's
// vdps.Rule and ranks it from the incumbent by ComparePayoff. Only a winner
// that is not the incumbent is looked up in w's list, which may hold its
// entries in any order.
//
// It panics if w's list lacks the winner (see listIndex).
func (s *State) walkTop(w int) int {
	if s.lowStart == nil {
		s.groupByLow()
	}
	list, cur := s.Strategies[w], s.Current[w]
	var top vdps.StrategyRef
	found := cur != Null
	if found {
		top = list[cur]
	}
	rule := s.gen.Rule(w)
	cands := s.gen.Candidates()
	for p, o := range s.owner {
		if o != -1 && o != w {
			continue
		}
		for _, ci := range s.byLow[s.lowStart[p]:s.lowStart[p+1]] {
			if !s.reachable(w, cands[ci].Points) {
				continue
			}
			if ref, ok := rule.Strategy(int(ci)); ok && (!found || s.gen.ComparePayoff(ref, top) < 0) {
				top, found = ref, true
			}
		}
	}
	switch {
	case !found:
		return Null
	case cur != Null && top.Cand == list[cur].Cand:
		return cur
	}
	return s.listIndex(w, top.Cand)
}

// listIndex returns the index of candidate ci in worker w's list, which
// may hold its entries in any order, each candidate once: the lookup of a
// strategy that walkTop or RandomInit found on the candidate table. It
// panics if the list lacks ci, since the worker's vdps.Rule admits every
// candidate they find: such a list is not what
// Generator.WorkerStrategies returns, which NewStateWithStrategies
// requires.
func (s *State) listIndex(w int, ci int32) int {
	si := slices.IndexFunc(s.Strategies[w], func(r vdps.StrategyRef) bool { return r.Cand == ci })
	if si < 0 {
		panic("game: a strategy list lacks a candidate its worker can take; lists must be what vdps.Generator.WorkerStrategies returns")
	}
	return si
}

// reachable reports whether every point of pts is free or worker w's: the
// availability test of Available and of walkTop's candidates.
func (s *State) reachable(w int, pts []int) bool {
	for _, p := range pts {
		if o := s.owner[p]; o != -1 && o != w {
			return false
		}
	}
	return true
}

// groupByLow builds walkTop's index: a counting sort of the live
// candidates by Generator.LowestPoints, tombstones left out.
func (s *State) groupByLow() {
	low := s.gen.LowestPoints()
	start := make([]int32, len(s.owner)+1)
	for ci, p := range low {
		if s.gen.SetSize(int32(ci)) > 0 {
			start[p+1]++
		}
	}
	for p := range s.owner {
		start[p+1] += start[p]
	}
	byLow := make([]int32, start[len(s.owner)])
	for ci, p := range low {
		if s.gen.SetSize(int32(ci)) > 0 {
			byLow[start[p]] = int32(ci)
			start[p]++
		}
	}
	copy(start[1:], start)
	start[0] = 0
	s.byLow, s.lowStart = byLow, start
}

// NthBest sorts idx, a set of indices into worker w's strategy list, by
// Generator.ComparePayoff and returns idx[k]: the k-th best of those
// strategies, whatever order the list holds them in. IEGT's random draws
// pick through it, so the strategy a draw selects depends only on the rule,
// not on the layout.
func (s *State) NthBest(w int, idx []int, k int) int {
	list := s.Strategies[w]
	slices.SortFunc(idx, func(a, b int) int { return s.gen.ComparePayoff(list[a], list[b]) })
	return idx[k]
}

// SortByPayoff reorders every worker's strategy list by
// Generator.ComparePayoff, for readers that enumerate strategies in
// preference order: the reference solvers and the exhaustive baselines.
// Call it only on a fresh state, before any strategy is chosen: it moves the
// entries Current indexes. On a state from NewStateWithStrategies it
// reorders the caller's lists too.
func (s *State) SortByPayoff() {
	for _, list := range s.Strategies {
		slices.SortFunc(list, s.gen.ComparePayoff)
	}
}

// Switch sets worker w's strategy to si (possibly Null), releasing w's
// previous delivery points and claiming the new ones. It panics if the new
// strategy is not available; callers must check Available first.
func (s *State) Switch(w, si int) {
	if cur := s.Current[w]; cur != Null {
		pts := s.points(w, cur)
		for _, p := range pts {
			s.owner[p] = -1
		}
		s.free += len(pts)
	}
	if si == Null {
		s.Current[w] = Null
		s.Payoffs[w] = 0
		return
	}
	pts := s.points(w, si)
	for _, p := range pts {
		if o := s.owner[p]; o != -1 && o != w {
			panic("game: Switch to unavailable strategy")
		}
		s.owner[p] = w
	}
	s.free -= len(pts)
	s.Current[w] = si
	s.Payoffs[w] = s.Strategies[w][si].Payoff
}

// RandomInit performs the initial assignment of Algorithm 2 (lines 6-16)
// and Algorithm 3 (lines 6-16): workers are visited in random order and each
// receives a random *singleton* VDPS (a set with one delivery point) among
// those still available; workers without any available singleton get Null.
//
// It reads the candidate table, not the strategy lists. It gathers the
// indices of the table's live singletons once (vdps.Generator.Singletons);
// for each worker in the drawn order it prices the singletons whose point
// is free or its own with the worker's vdps.Rule and takes the k-th best
// under Generator.ComparePayoff (nthBest). Only the drawn candidate is
// then looked up in the worker's list (listIndex). So the draw depends on
// the rule alone, not on any list's order, and it consumes rng.Perm and
// then one rng.Intn per worker with an available singleton, as the list
// scan of ReferenceRandomInit does.
//
// It panics if a worker's list lacks the drawn candidate (see listIndex).
func (s *State) RandomInit(rng *rand.Rand) {
	order := rng.Perm(len(s.Current))
	singles := s.gen.Singletons(make([]int32, 0, len(s.owner)))
	low := s.gen.LowestPoints()
	draw := make([]vdps.StrategyRef, 0, len(singles))
	for _, w := range order {
		rule := s.gen.Rule(w)
		draw = draw[:0]
		for _, ci := range singles {
			if o := s.owner[low[ci]]; o != -1 && o != w {
				continue
			}
			if ref, ok := rule.Strategy(int(ci)); ok {
				draw = append(draw, ref)
			}
		}
		if len(draw) == 0 {
			s.Switch(w, Null)
			continue
		}
		s.Switch(w, s.listIndex(w, nthBest(s.gen, draw, rng.Intn(len(draw))).Cand))
	}
}

// nthBest returns the k-th best of refs under g.ComparePayoff, counting
// from 0, as sorting refs by it would place at index k. It selects instead
// of sorting (Hoare's quickselect around the middle element), so it costs
// linear time on average, and it reorders refs. The refs must be distinct
// under ComparePayoff, as a worker's strategies on distinct candidates are;
// the pivot is recognized by its candidate, so comparing it with itself
// never reaches ComparePayoff's tie rule, which loads both candidates.
func nthBest(g *vdps.Generator, refs []vdps.StrategyRef, k int) vdps.StrategyRef {
	lo, hi := 0, len(refs)-1
	for lo < hi {
		p := refs[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for refs[i].Cand != p.Cand && g.ComparePayoff(refs[i], p) < 0 {
				i++
			}
			for refs[j].Cand != p.Cand && g.ComparePayoff(refs[j], p) > 0 {
				j--
			}
			if i <= j {
				refs[i], refs[j] = refs[j], refs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return refs[k]
		}
	}
	return refs[k]
}

// Assignment materializes the current joint strategy as a model.Assignment.
func (s *State) Assignment() *model.Assignment {
	a := model.NewAssignment(len(s.Current))
	for w, si := range s.Current {
		if si != Null {
			a.Routes[w] = s.StrategySeq(w, si).Clone()
		}
	}
	return a
}

// Summary returns the payoff metrics of the current joint strategy.
func (s *State) Summary() payoff.Summary {
	return payoff.Summarize(s.Instance(), s.Assignment())
}
