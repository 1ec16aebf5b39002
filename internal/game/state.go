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
// Generator.WorkerStrategies would return for that worker against g — the
// streaming engine caches those lists across deltas and rebuilds only the
// workers whose feasible VDPS sets changed, so state construction becomes a
// slice-header copy instead of a strategy-space build. The strategy slices are
// shared, not copied: a solver that sorts them (SortByPayoff) sorts the
// caller's lists, and FGT and IEGT never do. It panics on a worker-count
// mismatch, which is always a caller bug.
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
	if si == Null {
		return true
	}
	for _, p := range s.points(w, si) {
		if o := s.owner[p]; o != -1 && o != w {
			return false
		}
	}
	return true
}

// TopAvailable returns the best strategy under Generator.ComparePayoff —
// highest payoff, the candidate first in the candidates' own order on ties
// — among those w could hold now, or Null when none is. The incumbent
// counts as available, so the running top starts at it, and availability is
// checked only for an entry that beats the best found so far: at an
// equilibrium that is exactly the entries better than the incumbent,
// wherever the list holds it.
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
func (s *State) TopAvailable(w int) int {
	list := s.Strategies[w]
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
		if s.Available(w, si) {
			top, tp = si, list[si].Payoff
		}
	}
	return top
}

// NthBest sorts idx, a set of indices into worker w's strategy list, by
// Generator.ComparePayoff and returns idx[k]: the k-th best of those
// strategies, whatever order the list holds them in. The random draws of
// RandomInit and IEGT pick through it, so the strategy a draw selects
// depends only on the rule, not on the layout.
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
		for _, p := range s.points(w, cur) {
			s.owner[p] = -1
		}
	}
	if si == Null {
		s.Current[w] = Null
		s.Payoffs[w] = 0
		return
	}
	for _, p := range s.points(w, si) {
		if o := s.owner[p]; o != -1 && o != w {
			panic("game: Switch to unavailable strategy")
		}
		s.owner[p] = w
	}
	s.Current[w] = si
	s.Payoffs[w] = s.Strategies[w][si].Payoff
}

// RandomInit performs the initial assignment of Algorithm 2 (lines 6-16)
// and Algorithm 3 (lines 6-16): workers are visited in random order and each
// receives a random *singleton* VDPS (a set with one delivery point) among
// those still available; workers without any available singleton get Null.
//
// A sequence visits exactly its candidate's point set, so a singleton route
// is a size-1 set: the test reads vdps.Generator.SetSize, a flat array,
// without loading the candidate. The draw ranks the gathered singletons
// with NthBest, so it does not depend on the order the list holds them in.
func (s *State) RandomInit(rng *rand.Rand) {
	order := rng.Perm(len(s.Current))
	for _, w := range order {
		var singles []int
		for si, r := range s.Strategies[w] {
			if s.gen.SetSize(r.Cand) == 1 && s.Available(w, si) {
				singles = append(singles, si)
			}
		}
		if len(singles) == 0 {
			s.Switch(w, Null)
			continue
		}
		s.Switch(w, s.NthBest(w, singles, rng.Intn(len(singles))))
	}
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
