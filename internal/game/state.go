// Package game formulates FTA as an n-player strategic game (paper §V) and
// implements the Fairness-aware Game-Theoretic (FGT) best-response algorithm
// (Algorithm 2). The State type — strategy spaces, current joint strategy,
// delivery-point ownership and payoffs — is shared with the evolutionary
// algorithm in package evo.
package game

import (
	"math/rand"
	"runtime"
	"sync"

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
	// sorted by descending payoff (the same order as vdps.Generator.ForWorker).
	// The 16-byte pointer-free references keep the strategy space — the
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
// generator's per-worker VDPS lists.
//
// The per-worker strategy-space construction is an embarrassingly parallel
// O(W * C) scan over the generator's candidates: with at least two workers
// per shard it is sharded over runtime.GOMAXPROCS(0) goroutines. Every shard
// writes only its own Strategies slots, and each worker's list is
// independent of the others, so the result is identical to the sequential
// construction.
func NewState(g *vdps.Generator) *State {
	return newState(g, runtime.GOMAXPROCS(0))
}

// newState is NewState sharded over par goroutines; par <= 1, or fewer
// than 2*par workers, builds sequentially.
func newState(g *vdps.Generator, par int) *State {
	in := g.Instance()
	n := len(in.Workers)
	s := &State{
		gen:        g,
		Strategies: make([][]vdps.StrategyRef, n),
		Current:    make([]int, n),
		Payoffs:    make([]float64, n),
		owner:      make([]int, len(in.Points)),
	}
	if par > 1 && n >= 2*par {
		var wg sync.WaitGroup
		chunk := (n + par - 1) / par
		for start := 0; start < n; start += chunk {
			end := start + chunk
			if end > n {
				end = n
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				fillStrategies(g, s.Strategies, lo, hi)
			}(start, end)
		}
		wg.Wait()
	} else {
		fillStrategies(g, s.Strategies, 0, n)
	}
	for w := 0; w < n; w++ {
		s.Current[w] = Null
	}
	for p := range s.owner {
		s.owner[p] = -1
	}
	return s
}

// NewStateWithStrategies builds a game state over prebuilt per-worker
// strategy spaces instead of deriving them from the generator. strategies
// must have one entry per instance worker, each holding exactly what
// Generator.WorkerStrategies would return for that worker against g — the
// streaming engine caches those lists across deltas and rebuilds only the
// workers whose feasible VDPS sets changed, so state construction becomes a
// slice-header copy instead of an O(W*C) scan. The strategy slices are
// shared, not copied; the game dynamics never mutate them. It panics on a
// worker-count mismatch, which is always a caller bug.
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

// fillStrategies builds the strategy lists of workers [lo, hi), reusing one
// key scratch so each worker's list is allocated exactly once at its final
// size and only 16-byte sort keys move through the sort.
func fillStrategies(g *vdps.Generator, strategies [][]vdps.StrategyRef, lo, hi int) {
	var sc vdps.StrategyScratch
	for w := lo; w < hi; w++ {
		strategies[w] = g.WorkerStrategies(w, &sc)
	}
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

// TopAvailable returns the first strategy in w's payoff-sorted list that w
// could hold now — the highest-payoff available strategy, ties going to the
// earlier entry — or Null when none is. The incumbent counts as available,
// so the scan stops there at the latest.
func (s *State) TopAvailable(w int) int {
	for si := range s.Strategies[w] {
		if si == s.Current[w] || s.Available(w, si) {
			return si
		}
	}
	return Null
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
func (s *State) RandomInit(rng *rand.Rand) {
	order := rng.Perm(len(s.Current))
	for _, w := range order {
		var singles []int
		for si := range s.Strategies[w] {
			// A sequence visits exactly its candidate's point set, so a
			// singleton route is a size-1 set — checked on the point set to
			// avoid chasing the frontier entry per strategy.
			if len(s.points(w, si)) == 1 && s.Available(w, si) {
				singles = append(singles, si)
			}
		}
		if len(singles) == 0 {
			s.Switch(w, Null)
			continue
		}
		s.Switch(w, singles[rng.Intn(len(singles))])
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

// EligibleWorkers returns the number of workers with a non-empty strategy
// space.
func (s *State) EligibleWorkers() int {
	var n int
	for _, st := range s.Strategies {
		if len(st) > 0 {
			n++
		}
	}
	return n
}
