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

// Null is the candidate index of the idle strategy: a worker whose
// Current[w].Cand is Null selects no delivery points.
const Null = -1

// Idle is the idle strategy: candidate Null, payoff 0. A worker switches
// to it to release its points.
var Idle = vdps.StrategyRef{Cand: Null}

// State is the mutable state of an FTA game: each worker's strategy space
// (its valid VDPSs), the current joint strategy, the delivery-point owner
// table enforcing disjointness, and the induced payoffs.
//
// A strategy is named by its vdps.StrategyRef — payoff, candidate and
// frontier entry — not by a position in a list, so a reader compares two
// strategies by Cand (never with ==: a NaN payoff makes the structs
// unequal). The lists are an index over the strategy rule: a state from
// NewStateOnDemand builds them, for every worker at once, the first time a
// reader needs one (Lists).
type State struct {
	gen *vdps.Generator
	// Strategies[w] lists worker w's valid VDPSs in compact reference form,
	// in ascending candidate order as vdps.Generator.WorkerStrategies
	// gathers them (SortByPayoff reorders them). No reader relies on the
	// order: each applies Generator.ComparePayoff where it needs one. The
	// 16-byte pointer-free references keep the strategy space cheap to
	// build and invisible to the garbage collector. It is nil on a state
	// from NewStateOnDemand until Lists builds it; read it through Lists or
	// List.
	Strategies [][]vdps.StrategyRef
	// Current[w] is w's chosen strategy, or Idle.
	Current []vdps.StrategyRef
	// Payoffs[w] is the payoff of w's current strategy (0 for Idle).
	Payoffs []float64
	// owner[p] is the worker currently holding delivery point p, or -1.
	owner []int
	// free counts the points no worker holds; Switch keeps it.
	free int
	// counts[w] is the length worker w's list has once built: what walks
	// reads while Strategies is nil. The first walks of a state without
	// lists counts them all (strategyCounts); a state whose lists are built
	// first never does.
	counts []int
	// byLow groups the generator's live candidates by lowest point: group p
	// is byLow[lowStart[p]:lowStart[p+1]], in table order. walkTop builds
	// both on its first call.
	byLow, lowStart []int32
}

// NewState builds a game state with empty strategy choices and every
// worker's strategy list built: NewStateOnDemand's state after Lists.
func NewState(g *vdps.Generator) *State {
	return newState(g, runtime.GOMAXPROCS(0))
}

// newState is NewState with the strategy spaces built over par goroutines.
func newState(g *vdps.Generator, par int) *State {
	return NewStateWithStrategies(g, g.StrategySpaces(par))
}

// NewStateOnDemand builds a game state with empty strategy choices and no
// strategy list yet. The random start and a walking best response never
// read a list, so a solve whose every best response walks builds none; the
// first reader that needs one builds them all (Lists), each exactly what
// NewState would hold. TopAvailable's choice reads each list's length
// instead, counted (vdps.Generator.StrategyCounts) at its first call on a
// state still without lists, so a solver that builds the lists before its
// first best response, as IEGT and the assigners do, never counts.
func NewStateOnDemand(g *vdps.Generator) *State {
	return emptyState(g)
}

// NewStateWithStrategies builds a game state over prebuilt per-worker
// strategy spaces instead of deriving them from the generator. strategies
// must have one entry per instance worker, each holding exactly what
// Generator.WorkerStrategies would return for that worker against g, in any
// order: each candidate the worker's vdps.Rule admits once, priced by that
// rule bit for bit. RandomInit and TopAvailable rely on it: both may find a
// strategy from the candidate table and the rule instead of the list. The
// streaming engine caches those lists across deltas and rebuilds only the
// workers whose feasible VDPS sets changed, so state construction becomes a
// slice-header copy instead of a strategy-space build. The strategy slices
// are shared, not copied: a solver that sorts them (SortByPayoff) sorts the
// caller's lists, and FGT and IEGT never do. It panics on a worker-count
// mismatch, which is always a caller bug.
func NewStateWithStrategies(g *vdps.Generator, strategies [][]vdps.StrategyRef) *State {
	if len(strategies) != len(g.Instance().Workers) {
		panic("game: NewStateWithStrategies: strategy spaces do not match worker count")
	}
	s := emptyState(g)
	s.Strategies = strategies
	return s
}

// emptyState returns a state over g with every worker idle, every point
// free and no strategy list.
func emptyState(g *vdps.Generator) *State {
	in := g.Instance()
	n := len(in.Workers)
	s := &State{
		gen:     g,
		Current: make([]vdps.StrategyRef, n),
		Payoffs: make([]float64, n),
		owner:   make([]int, len(in.Points)),
		free:    len(in.Points),
	}
	for w := range s.Current {
		s.Current[w] = Idle
	}
	for p := range s.owner {
		s.owner[p] = -1
	}
	return s
}

// Fresh returns an unplayed state over s's generator that shares what s
// has built: its strategy lists when it holds them, otherwise their
// lengths if it has counted them, and walkTop's index. It is how a
// certificate replays a played state's spaces without building them again.
// The lists are shared as NewStateWithStrategies shares them; lists the
// fresh state builds later stay its own.
func (s *State) Fresh() *State {
	f := emptyState(s.gen)
	f.Strategies, f.counts = s.Strategies, s.counts
	f.byLow, f.lowStart = s.byLow, s.lowStart
	return f
}

// Lists returns every worker's strategy list, building them all on the
// first call of a state from NewStateOnDemand: vdps.Generator.StrategySpaces
// over runtime.GOMAXPROCS(0) goroutines, each list what
// Generator.WorkerStrategies returns for its worker. Every reader that
// scans a list reads it through Lists or List.
func (s *State) Lists() [][]vdps.StrategyRef {
	if s.Strategies == nil {
		s.Strategies = s.gen.StrategySpaces(runtime.GOMAXPROCS(0))
		s.counts = nil
	}
	return s.Strategies
}

// List returns worker w's strategy list (see Lists).
func (s *State) List(w int) []vdps.StrategyRef { return s.Lists()[w] }

// Instance returns the underlying problem instance.
func (s *State) Instance() *model.Instance { return s.gen.Instance() }

// Generator returns the VDPS generator backing the state.
func (s *State) Generator() *vdps.Generator { return s.gen }

// points returns the delivery-point set of strategy r.
func (s *State) points(r vdps.StrategyRef) []int {
	return s.gen.RefPoints(r)
}

// StrategySeq returns the visiting sequence of strategy r. The route is
// shared with the generator; callers must not modify it.
func (s *State) StrategySeq(r vdps.StrategyRef) model.Route {
	return s.gen.RefSeq(r)
}

// Available reports whether worker w could switch to its strategy r without
// overlapping another worker's current delivery points. The worker's own
// current points do not block the switch. Idle is always available.
func (s *State) Available(w int, r vdps.StrategyRef) bool {
	return r.Cand == Null || s.reachable(w, s.points(r))
}

// TopAvailable returns the best strategy under Generator.ComparePayoff —
// highest payoff, the candidate first in the candidates' own order on ties
// — among those w could hold now, or Idle when none is. The incumbent
// counts as available, and when it is the best, TopAvailable returns it.
//
// It reaches that argmax one of two ways and takes the one expected to read
// less. scanTop reads worker w's whole list; walkTop reads only the live
// candidates whose lowest point is free or w's own, which are the only ones
// w could hold. The reachable points start about reach/points of the live
// candidates, so walkTop is chosen when that share is below the list's
// length: in a crowded game, where nearly every point is held, it reads a
// few hundred candidates instead of thousands of entries. The choice reads
// four counts the state holds — the free points, the incumbent's set size,
// the live candidates and the list's length, counted without a list on a
// state that has none — and nothing that is built on demand, so a state
// whose calls all scan never builds walkTop's index, and one whose calls
// all walk never builds a list. Both ways return the same strategy:
// ComparePayoff is a strict total order on a worker's strategies, and
// walkTop prices each candidate with the rule that priced its list entry
// (see NewStateWithStrategies).
func (s *State) TopAvailable(w int) vdps.StrategyRef {
	if s.walks(w) {
		return s.walkTop(w)
	}
	return s.scanTop(w)
}

// walks reports whether TopAvailable takes walkTop for worker w.
func (s *State) walks(w int) bool {
	reach := s.free
	if cur := s.Current[w]; cur.Cand != Null {
		reach += int(s.gen.SetSize(cur.Cand))
	}
	return reach*s.gen.Stats().Candidates < s.listLen(w)*len(s.owner)
}

// listLen returns the length of worker w's list without building it: the
// list's own where the state holds lists, the counted one otherwise.
func (s *State) listLen(w int) int {
	if s.Strategies != nil {
		return len(s.Strategies[w])
	}
	return s.strategyCounts()[w]
}

// strategyCounts returns every worker's list length, counting them on the
// first call.
func (s *State) strategyCounts() []int {
	if s.counts == nil {
		s.counts = countStrategies(s.gen)
	}
	return s.counts
}

// countStrategies is vdps.Generator.StrategyCounts, held in a variable so
// that a test can see whether a solve counts.
var countStrategies = (*vdps.Generator).StrategyCounts

// scanTop is TopAvailable over worker w's list, in list order. The running
// top starts at the incumbent, and availability is checked only for an
// entry that beats the best found so far: at an equilibrium that is exactly
// the entries better than the incumbent, wherever the list holds it. It
// returns the list entry it found, or the incumbent.
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
func (s *State) scanTop(w int) vdps.StrategyRef {
	list := s.List(w)
	low, owner := s.gen.LowestPoints(), s.owner
	top := s.Current[w]
	var tp float64
	if top.Cand != Null {
		tp = top.Payoff
	}
	for si := range list {
		if top.Cand != Null {
			p := list[si].Payoff
			if p < tp {
				continue
			}
			if !(p > tp) && s.gen.ComparePayoff(list[si], top) >= 0 {
				continue
			}
		}
		if o := owner[low[list[si].Cand]]; o != -1 && o != w {
			continue
		}
		if s.Available(w, list[si]) {
			top, tp = list[si], list[si].Payoff
		}
	}
	return top
}

// walkTop is TopAvailable over the candidate table. For each point that is
// free or w's own it reads the live candidates whose lowest point it is,
// keeps those whose every point is free or w's own, prices each with w's
// vdps.Rule and ranks it from the incumbent by ComparePayoff. It returns
// the priced winner, or the incumbent.
//
// On a state that holds lists, a winner that is not the incumbent is
// confirmed in w's list, which may hold its entries in any order; it
// panics if the list lacks it (see listed).
func (s *State) walkTop(w int) vdps.StrategyRef {
	if s.lowStart == nil {
		s.groupByLow()
	}
	cur := s.Current[w]
	top, found := cur, cur.Cand != Null
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
		return Idle
	case top.Cand != cur.Cand:
		s.listed(w, top.Cand)
	}
	return top
}

// listed checks, on a state that holds lists, that worker w's list holds
// candidate ci: a strategy that walkTop or RandomInit found on the
// candidate table. The list may hold its entries in any order, each
// candidate once. It panics if the list lacks ci, since the worker's
// vdps.Rule admits every candidate they find: such a list is not what
// Generator.WorkerStrategies returns, which NewStateWithStrategies
// requires. A state without lists has nothing to check against.
func (s *State) listed(w int, ci int32) {
	if s.Strategies == nil {
		return
	}
	if !slices.ContainsFunc(s.Strategies[w], func(r vdps.StrategyRef) bool { return r.Cand == ci }) {
		panic("game: a strategy list lacks a candidate its worker can take; lists must be what vdps.Generator.WorkerStrategies returns")
	}
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

// SortByPayoff reorders every worker's strategy list by
// Generator.ComparePayoff, for readers that enumerate strategies in
// preference order: the reference solvers and the exhaustive baselines. It
// builds the lists first on a state that has none. A state names its
// strategies by reference, not by list position, so it may sort at any
// time; on a state from NewStateWithStrategies it reorders the caller's
// lists too.
func (s *State) SortByPayoff() {
	for _, list := range s.Lists() {
		slices.SortFunc(list, s.gen.ComparePayoff)
	}
}

// Switch sets worker w's strategy to r (possibly Idle), releasing w's
// previous delivery points and claiming the new ones. r must be one of w's
// strategies. It panics if r is not available; callers must check
// Available first.
func (s *State) Switch(w int, r vdps.StrategyRef) {
	if cur := s.Current[w]; cur.Cand != Null {
		pts := s.points(cur)
		for _, p := range pts {
			s.owner[p] = -1
		}
		s.free += len(pts)
	}
	if r.Cand == Null {
		s.Current[w] = Idle
		s.Payoffs[w] = 0
		return
	}
	pts := s.points(r)
	for _, p := range pts {
		if o := s.owner[p]; o != -1 && o != w {
			panic("game: Switch to unavailable strategy")
		}
		s.owner[p] = w
	}
	s.free -= len(pts)
	s.Current[w] = r
	s.Payoffs[w] = r.Payoff
}

// RandomInit performs the initial assignment of Algorithm 2 (lines 6-16)
// and Algorithm 3 (lines 6-16): workers are visited in random order and each
// receives a random *singleton* VDPS (a set with one delivery point) among
// those still available; workers without any available singleton get Idle.
//
// It reads the candidate table, not the strategy lists. It gathers the
// indices of the table's live singletons once (vdps.Generator.Singletons);
// for each worker in the drawn order it prices the singletons whose point
// is free or its own with the worker's vdps.Rule, takes the k-th best under
// Generator.ComparePayoff (Generator.NthBest) and switches to the ref it
// priced. So the draw depends on the rule alone, not on any list's order,
// and it consumes rng.Perm and then one rng.Intn per worker with an
// available singleton, as the list scan of ReferenceRandomInit does.
//
// On a state that holds lists it panics if a worker's list lacks the drawn
// candidate (see listed).
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
			s.Switch(w, Idle)
			continue
		}
		pick := s.gen.NthBest(draw, rng.Intn(len(draw)))
		s.listed(w, pick.Cand)
		s.Switch(w, pick)
	}
}

// Assignment materializes the current joint strategy as a model.Assignment.
func (s *State) Assignment() *model.Assignment {
	a := model.NewAssignment(len(s.Current))
	for w, r := range s.Current {
		if r.Cand != Null {
			a.Routes[w] = s.StrategySeq(r).Clone()
		}
	}
	return a
}

// Summary returns the payoff metrics of the current joint strategy.
func (s *State) Summary() payoff.Summary {
	return payoff.Summarize(s.Instance(), s.Assignment())
}
