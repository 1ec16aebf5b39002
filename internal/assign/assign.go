// Package assign defines the Assigner interface every solver implements —
// the paper's game-theoretic methods (game.Options for FGT, evo.Options for
// IEGT) and the baselines here: GTA (Greedy Task Assignment), MPTA (Maximal
// Payoff based Task Assignment), MMTA, LEXIFAIR and the exact reference.
package assign

import (
	"context"
	"sort"

	"fairtask/internal/game"
	"fairtask/internal/vdps"
)

// Assigner computes a task assignment by playing a game state.
type Assigner interface {
	// Name identifies the algorithm in experiment output ("GTA", "FGT", ...).
	Name() string
	// Assign solves the instance of s. s is fresh and unplayed, from
	// game.NewState, game.NewStateOnDemand or game.NewStateWithStrategies,
	// and belongs to the solver for this one call: it may build the lists
	// (game.State.Lists) or reorder a worker's list
	// (game.State.SortByPayoff), but it never changes a list's members or
	// their payoffs. Implementations observe ctx at iteration boundaries
	// and return ctx.Err() when it is done, so a canceled request or an
	// expired job deadline stops the search instead of running to
	// completion.
	Assign(ctx context.Context, s *game.State) (*game.Result, error)
}

// Certified is an Assigner whose converged results carry a certificate:
// the stopping condition of the run, checked with the options the solver
// ran. FGT certifies a pure Nash equilibrium under the IAU (game.VerifyNE),
// IEGT the improved evolutionary stable state (evo.VerifyEquilibrium), and
// LEXIFAIR the leximin optimum (VerifyLexifair).
type Certified interface {
	Assigner
	// Verify checks the joint strategy loaded into s (see
	// game.State.LoadAssignment) and returns nil when it holds the
	// certificate. It does not modify s.
	Verify(s *game.State) error
}

// GTA is the Greedy Task Assignment baseline: repeatedly give the
// still-unassigned worker whose best available VDPS has the highest payoff
// that VDPS, until no unassigned worker has an available strategy. GTA
// ignores fairness entirely.
type GTA struct{}

// Name implements Assigner.
func (GTA) Name() string { return "GTA" }

// Assign implements Assigner.
func (GTA) Assign(ctx context.Context, s *game.State) (*game.Result, error) {
	if len(s.Current) == 0 {
		return nil, game.ErrNoWorkers
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	greedy(s)
	return &game.Result{
		Assignment: s.Assignment(),
		Summary:    s.Summary(),
		Iterations: 1,
		Converged:  true,
	}, nil
}

// greedy fills the state with the greedy assignment over all workers: each
// round, the still-unassigned worker whose best available VDPS
// (State.TopAvailable) has the highest payoff takes it. It returns the
// achieved total payoff.
func greedy(s *game.State) float64 {
	all := make([]int, len(s.Current))
	for i := range all {
		all[i] = i
	}
	return greedySubset(s, all)
}

// MPTA is the Maximal Payoff based Task Assignment baseline: it maximizes
// the total worker payoff. The paper realizes MPTA with a tree-decomposition
// technique from prior work; this implementation solves the identical
// objective — a maximum-weight set packing over (worker, VDPS) candidates —
// with exact branch-and-bound under a node budget, falling back to greedy
// completion plus single-switch local search when the budget is exhausted
// (see DESIGN.md, substitutions).
type MPTA struct {
	// TopK limits each worker's candidate strategies to its K highest-payoff
	// VDPSs to keep the search tractable. Zero means the default of 64.
	TopK int
	// NodeBudget caps branch-and-bound nodes. Zero means the default of 2e6.
	NodeBudget int
	// DisableDecomposition solves all workers as a single component instead
	// of decomposing the conflict graph. Only useful for the decomposition
	// ablation benchmark.
	DisableDecomposition bool
}

// Name implements Assigner.
func (MPTA) Name() string { return "MPTA" }

// Assign implements Assigner.
func (m MPTA) Assign(ctx context.Context, s *game.State) (*game.Result, error) {
	if len(s.Current) == 0 {
		return nil, game.ErrNoWorkers
	}
	// The top-K cut, the suffix bound and the search's branching order all
	// read each worker's list in payoff order.
	s.SortByPayoff()
	topK := m.TopK
	if topK <= 0 {
		topK = 64
	}
	budget := m.NodeBudget
	if budget <= 0 {
		budget = 2_000_000
	}

	// Decompose the conflict graph into connected components of workers:
	// two workers interact iff their candidate strategies can share a
	// delivery point. Components are independent set-packing subproblems,
	// mirroring the worker-decomposition idea behind the paper's MPTA
	// references, and shrink the search exponentially on sparse instances.
	comps := components(s, topK)
	if m.DisableDecomposition {
		all := make([]int, len(s.Current))
		for i := range all {
			all[i] = i
		}
		comps = [][]int{all}
	}
	exhausted := true
	n := len(s.Current)
	for _, comp := range comps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		compBudget := budget * len(comp) / n
		if compBudget < 1000 {
			compBudget = 1000
		}
		b := &bnb{s: s, ctx: ctx, topK: topK, budget: compBudget, workers: comp}
		b.run()
		if b.canceled {
			return nil, ctx.Err()
		}
		if !b.exhausted {
			exhausted = false
		}
		// Apply the component's best joint strategy.
		for i, w := range comp {
			if r := b.best[i]; r.Cand != game.Null && s.Available(w, r) {
				s.Switch(w, r)
			}
		}
	}
	localSearch(s)

	return &game.Result{
		Assignment: s.Assignment(),
		Summary:    s.Summary(),
		Iterations: 1,
		Converged:  exhausted, // true when every component was solved exactly
	}, nil
}

// components groups workers into connected components of the strategy
// conflict graph, considering each worker's top-K strategies.
func components(s *game.State, topK int) [][]int {
	n := len(s.Current)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	pointToWorker := map[int]int{}
	for w, list := range s.Lists() {
		for _, r := range list[:min(len(list), topK)] {
			for _, p := range s.StrategySeq(r) {
				if prev, ok := pointToWorker[p]; ok {
					union(prev, w)
				} else {
					pointToWorker[p] = w
				}
			}
		}
	}

	byRoot := map[int][]int{}
	for w := 0; w < n; w++ {
		r := find(w)
		byRoot[r] = append(byRoot[r], w)
	}
	// Deterministic order: by smallest member.
	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return byRoot[roots[i]][0] < byRoot[roots[j]][0] })
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out
}

// bnb is the branch-and-bound search state for one MPTA component. It only
// assigns the workers listed in workers; all indices below are positions in
// that slice, not global worker indices.
type bnb struct {
	s       *game.State
	ctx     context.Context
	topK    int
	budget  int
	workers []int

	choice    []vdps.StrategyRef // current partial joint strategy, per position
	best      []vdps.StrategyRef
	bestValue float64
	nodes     int
	exhausted bool
	canceled  bool

	// suffixMax[i] bounds the payoff positions i.. can still add (sum of
	// each worker's best strategy payoff, ignoring conflicts — admissible).
	suffixMax []float64
}

func (b *bnb) run() {
	n := len(b.workers)
	b.choice = make([]vdps.StrategyRef, n)
	b.best = make([]vdps.StrategyRef, n)
	for i := range b.best {
		b.choice[i] = game.Idle
		b.best[i] = game.Idle
	}

	// Warm start: seed the incumbent with the greedy solution restricted to
	// this component, so the search prunes aggressively and — when the node
	// budget is exhausted — the result never falls below GTA quality.
	b.bestValue = greedySubset(b.s, b.workers)
	for i, w := range b.workers {
		b.best[i] = b.s.Current[w]
	}
	for _, w := range b.workers {
		b.s.Switch(w, game.Idle)
	}

	b.suffixMax = make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		top := 0.0
		if list := b.s.List(b.workers[i]); len(list) > 0 {
			top = list[0].Payoff // sorted by SortByPayoff
		}
		b.suffixMax[i] = b.suffixMax[i+1] + top
	}
	b.exhausted = b.dfs(0, 0)
	// Leave the component's workers unassigned; the caller applies b.best.
	for _, w := range b.workers {
		if b.s.Current[w].Cand != game.Null {
			b.s.Switch(w, game.Idle)
		}
	}
}

// dfs explores position i's choices given the accumulated value. It returns
// false when the node budget ran out somewhere below.
func (b *bnb) dfs(i int, value float64) bool {
	if b.canceled {
		return false
	}
	b.nodes++
	if b.nodes > b.budget {
		return false
	}
	// Poll cancellation every 8192 nodes: frequent enough that a canceled
	// search stops within microseconds, rare enough to stay off the profile.
	if b.nodes&0x1fff == 0 && b.ctx.Err() != nil {
		b.canceled = true
		return false
	}
	if value+b.suffixMax[i] <= b.bestValue {
		return true // pruned: cannot beat the incumbent
	}
	if i == len(b.workers) {
		if value > b.bestValue {
			b.bestValue = value
			copy(b.best, b.choice)
		}
		return true
	}
	w := b.workers[i]
	complete := true
	// Try the worker's top-K strategies (highest payoff first), then Null.
	list := b.s.List(w)
	for _, r := range list[:min(len(list), b.topK)] {
		if !b.s.Available(w, r) {
			continue
		}
		b.s.Switch(w, r)
		b.choice[i] = r
		if !b.dfs(i+1, value+r.Payoff) {
			complete = false
		}
		b.s.Switch(w, game.Idle)
		b.choice[i] = game.Idle
		if b.nodes > b.budget {
			return false
		}
	}
	if !b.dfs(i+1, value) {
		complete = false
	}
	return complete
}

// greedySubset runs the greedy assignment over only the given workers and
// returns the total payoff they achieve. Other workers' current strategies
// (if any) still block conflicting points via the shared ownership table.
//
// Each worker's TopAvailable is kept across rounds and recomputed only when
// the last assignment made it unavailable: greedy only ever claims points,
// so a top that is still available is still the best available strategy.
func greedySubset(s *game.State, workers []int) float64 {
	tops := make([]vdps.StrategyRef, len(workers))
	for i, w := range workers {
		tops[i] = s.TopAvailable(w)
	}
	var total float64
	for {
		best, bestPayoff := -1, 0.0
		for i := range workers {
			if r := tops[i]; r.Cand != game.Null && r.Payoff > bestPayoff {
				best, bestPayoff = i, r.Payoff
			}
		}
		if best == -1 {
			break
		}
		s.Switch(workers[best], tops[best])
		tops[best] = game.Idle // assigned
		total += bestPayoff
		for i, w := range workers {
			if r := tops[i]; r.Cand != game.Null && !s.Available(w, r) {
				tops[i] = s.TopAvailable(w)
			}
		}
	}
	return total
}

// localSearch improves the current joint strategy by single-worker switches
// that raise the total payoff, until a local optimum: each worker moves to
// its top available strategy when that beats its current payoff. It is a
// no-op when the branch-and-bound already proved optimality but cheap
// enough to always run.
func localSearch(s *game.State) {
	for improved := true; improved; {
		improved = false
		for w := range s.Current {
			if top := s.TopAvailable(w); top.Cand != game.Null && top.Payoff > s.Payoffs[w]+1e-12 {
				s.Switch(w, top)
				improved = true
			}
		}
	}
}
