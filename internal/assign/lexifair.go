package assign

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"fairtask/internal/bitset"
	"fairtask/internal/game"
	"fairtask/internal/model"
	"fairtask/internal/obs"
	"fairtask/internal/payoff"
	"fairtask/internal/vdps"
)

// Lexifair is the egalitarian counterpart of the paper's inequity-aversion
// game: iterative lexicographic minimax assignment. It maximizes the
// smallest worker payoff; among those solutions it maximizes the second
// smallest, and so on until every worker's level is fixed — the classic
// leximin refinement of max-min fairness (Basık et al., Hosseini et al.).
//
// Each level finds the best achievable bottleneck payoff by binary search
// over the distinct payoff thresholds, deciding feasibility of "every
// unfrozen worker earns at least T" with a Hopcroft–Karp bipartite matching
// between workers and VDPS candidates; when the matched candidates overlap
// on delivery points (matching relaxes point-disjointness) an exact
// conflict-aware backtracking search settles the answer. Workers proven
// unable to exceed the bottleneck are frozen at it and the search recurses
// on the rest. When no worker is provably stuck — a genuinely ambiguous
// level — the solver branches over the candidate bottleneck workers and
// keeps the lexicographically best completion, so the result is exact, not
// heuristic. The final level re-selects concrete strategies with a dense
// Hungarian matching that maximizes total reward among the payoff-optimal
// realizations (a pure tie-break: the payoff vector is already fixed).
//
// The search is exact while NodeBudget lasts; exhausting it degrades to the
// best bottleneck vector found so far and reports Converged = false.
type Lexifair struct {
	// NodeBudget caps search nodes (conflict-backtracking steps, feasibility
	// probes and level branches) across the whole solve. Zero means the
	// default of 4e6. The exhaustive differential tests run far below it.
	NodeBudget int
}

// lexDefaultBudget is the default Lexifair.NodeBudget.
const lexDefaultBudget = 4_000_000

// ErrLexMatrix is the sentinel wrapped by every lexifair payoff-matrix
// construction failure: a strategy reference pointing outside the
// generator's candidate or frontier tables, or a non-finite payoff.
// Classify builder errors with errors.Is.
var ErrLexMatrix = errors.New("assign: invalid lexifair payoff matrix")

// lexNull is the witness entry meaning "worker selects no strategy".
const lexNull = int32(game.Null)

// lexMatrix is the worker × VDPS-strategy payoff matrix the Lexifair solver
// searches over: per-worker strategy references sorted by descending payoff
// (rows), with the generator's candidate table as the shared column space —
// column masks give O(words) point-disjointness tests and column rewards
// feed the Hungarian tie-break.
type lexMatrix struct {
	refs [][]vdps.StrategyRef
	// colMask[c] and colReward[c] cache candidate c's point mask and total
	// reward (shared with the generator, read-only).
	colMask   []bitset.Set
	colReward []float64
	points    int
}

// newLexMatrix builds and validates the payoff matrix over lists, one
// strategy list per worker of g's instance, then sorts each list by
// Generator.ComparePayoff in place. All errors wrap ErrLexMatrix; the
// builder never panics on a corrupt list or generator, which is what the
// fuzz harness pins: every reference is checked before the sort reads its
// candidate, and every payoff is finite, so the sorted rows descend.
func newLexMatrix(g *vdps.Generator, lists [][]vdps.StrategyRef) (*lexMatrix, error) {
	cands := g.Candidates()
	m := &lexMatrix{
		refs:      lists,
		colMask:   make([]bitset.Set, len(cands)),
		colReward: make([]float64, len(cands)),
		points:    len(g.Instance().Points),
	}
	for ci := range cands {
		m.colMask[ci] = cands[ci].Mask
		m.colReward[ci] = cands[ci].Reward
	}
	for w, refs := range lists {
		for i, r := range refs {
			if r.Cand < 0 || int(r.Cand) >= len(cands) {
				return nil, fmt.Errorf("%w: worker %d strategy %d references candidate %d of %d",
					ErrLexMatrix, w, i, r.Cand, len(cands))
			}
			if r.Entry < 0 || int(r.Entry) >= len(cands[r.Cand].Frontier) {
				return nil, fmt.Errorf("%w: worker %d strategy %d references frontier entry %d of %d",
					ErrLexMatrix, w, i, r.Entry, len(cands[r.Cand].Frontier))
			}
			if math.IsNaN(r.Payoff) || math.IsInf(r.Payoff, 0) {
				return nil, fmt.Errorf("%w: worker %d strategy %d has non-finite payoff %v",
					ErrLexMatrix, w, i, r.Payoff)
			}
		}
		slices.SortFunc(refs, g.ComparePayoff)
	}
	return m, nil
}

// lexReq is one worker's payoff requirement during the level search. The
// zero value is unconstrained (the null strategy satisfies it).
type lexReq struct {
	// min is the required payoff lower bound; <= 0 without pin means free.
	min float64
	// pin freezes the worker at exactly min: a frozen level. min == 0 pins
	// the worker to the null strategy (or any zero-payoff one — equivalent
	// for the vector, and null never blocks anyone).
	pin bool
}

// required reports whether the requirement forces a real (non-null)
// strategy.
func (r lexReq) required() bool { return r.min > 0 }

// allowedRange returns the [lo, hi) slice of worker w's descending-payoff
// strategy list that satisfies the requirement: payoff >= min, narrowed to
// payoff == min when pinned.
func (m *lexMatrix) allowedRange(w int, rq lexReq) (int, int) {
	refs := m.refs[w]
	if !rq.required() {
		return 0, len(refs)
	}
	hi := sort.Search(len(refs), func(i int) bool { return refs[i].Payoff < rq.min })
	lo := 0
	if rq.pin {
		lo = sort.Search(len(refs), func(i int) bool { return refs[i].Payoff <= rq.min })
	}
	return lo, hi
}

// nextAbove returns worker w's smallest strategy payoff strictly above t,
// or ok == false when none exists.
func (m *lexMatrix) nextAbove(w int, t float64) (float64, bool) {
	refs := m.refs[w]
	hi := sort.Search(len(refs), func(i int) bool { return refs[i].Payoff <= t })
	if hi == 0 {
		return 0, false
	}
	return refs[hi-1].Payoff, true
}

// hasPayoff reports whether worker w has a strategy paying exactly t.
func (m *lexMatrix) hasPayoff(w int, t float64) bool {
	lo, hi := m.allowedRange(w, lexReq{min: t, pin: true})
	return lo < hi
}

// lexSolver carries the mutable search state of one Lexifair solve.
type lexSolver struct {
	m      *lexMatrix
	ctx    context.Context
	budget int

	nodes      int
	levels     int
	branches   int
	overBudget bool
	canceled   bool

	// fallback is the witness of the last successful feasibility probe at a
	// completed level — the best bottleneck realization known if the budget
	// runs out mid-search.
	fallback []int32
}

// step charges one search node against the budget and polls cancellation
// every 256 nodes. It reports whether the search may continue.
func (l *lexSolver) step() bool {
	if l.overBudget || l.canceled {
		return false
	}
	l.nodes++
	if l.nodes > l.budget {
		l.overBudget = true
		return false
	}
	if l.nodes&0xff == 0 && l.ctx.Err() != nil {
		l.canceled = true
		return false
	}
	return true
}

// feasible decides whether some point-disjoint joint strategy satisfies
// every requirement, returning a witness choice per worker (lexNull for the
// null strategy). The fast path is a Hopcroft–Karp matching between
// requiring workers and candidate columns — exact refutation (two workers
// can never share a candidate) and, when the matched candidates are
// pairwise point-disjoint, exact confirmation. Overlapping matches fall
// back to conflict-aware backtracking with forward checking, budgeted by
// step. A false result with overBudget set means "unknown", which callers
// treat as infeasible and surface via Converged = false.
func (l *lexSolver) feasible(reqs []lexReq) ([]int32, bool) {
	if !l.step() {
		return nil, false
	}
	m := l.m
	var req []int
	for w := range reqs {
		if reqs[w].required() {
			lo, hi := m.allowedRange(w, reqs[w])
			if lo >= hi {
				return nil, false
			}
			req = append(req, w)
		}
	}
	witness := make([]int32, len(reqs))
	for w := range witness {
		witness[w] = lexNull
	}
	if len(req) == 0 {
		return witness, true
	}

	adj := make([][]int, len(req))
	for i, w := range req {
		lo, hi := m.allowedRange(w, reqs[w])
		cols := make([]int, 0, hi-lo)
		for si := lo; si < hi; si++ {
			cols = append(cols, int(m.refs[w][si].Cand))
		}
		adj[i] = cols
	}
	matchL, size := hopcroftKarp(len(m.colMask), adj)
	if size < len(req) {
		return nil, false
	}

	// Disjointness of the matched candidates: if they never share a point
	// the matching itself is a valid joint strategy.
	used := bitset.New(m.points)
	conflict := false
	for i := range req {
		mask := m.colMask[matchL[i]]
		if used.Intersects(mask) {
			conflict = true
			break
		}
		orInto(used, mask)
	}
	if !conflict {
		for i, w := range req {
			witness[w] = l.strategyFor(w, reqs[w], matchL[i])
		}
		return witness, true
	}
	return l.feasibleBacktrack(reqs, req)
}

// strategyFor returns the index of worker w's first allowed strategy using
// candidate col. It panics only on a matcher bug (col came from w's
// adjacency list).
func (l *lexSolver) strategyFor(w int, rq lexReq, col int) int32 {
	lo, hi := l.m.allowedRange(w, rq)
	for si := lo; si < hi; si++ {
		if int(l.m.refs[w][si].Cand) == col {
			return int32(si)
		}
	}
	panic("assign: lexifair matching selected a disallowed candidate")
}

// feasibleBacktrack is the exact completion of feasible when the matching
// relaxation could not settle disjointness: depth-first search over the
// requiring workers (fewest options first) with point-mask pruning and
// one-step forward checking.
func (l *lexSolver) feasibleBacktrack(reqs []lexReq, req []int) ([]int32, bool) {
	m := l.m
	order := append([]int(nil), req...)
	span := func(w int) int {
		lo, hi := m.allowedRange(w, reqs[w])
		return hi - lo
	}
	sort.SliceStable(order, func(i, j int) bool {
		si, sj := span(order[i]), span(order[j])
		if si != sj {
			return si < sj
		}
		return order[i] < order[j]
	})

	used := bitset.New(m.points)
	choice := make([]int32, len(reqs))
	for w := range choice {
		choice[w] = lexNull
	}
	// hasOption reports whether worker w still has an allowed strategy
	// disjoint from the already claimed points.
	hasOption := func(w int) bool {
		lo, hi := m.allowedRange(w, reqs[w])
		for si := lo; si < hi; si++ {
			if !used.Intersects(m.colMask[m.refs[w][si].Cand]) {
				return true
			}
		}
		return false
	}
	var rec func(k int) bool
	rec = func(k int) bool {
		if !l.step() {
			return false
		}
		if k == len(order) {
			return true
		}
		w := order[k]
		lo, hi := m.allowedRange(w, reqs[w])
		for si := lo; si < hi; si++ {
			mask := m.colMask[m.refs[w][si].Cand]
			if used.Intersects(mask) {
				continue
			}
			orInto(used, mask)
			choice[w] = int32(si)
			ok := true
			for _, rest := range order[k+1:] {
				if !hasOption(rest) {
					ok = false
					break
				}
			}
			if ok && rec(k+1) {
				return true
			}
			clearFrom(used, mask)
			choice[w] = lexNull
			if l.overBudget || l.canceled {
				return false
			}
		}
		return false
	}
	if rec(0) {
		return choice, true
	}
	return nil, false
}

// orInto adds every bit of mask to dst in place. dst must be sized to the
// instance's point count, which bounds every candidate mask.
func orInto(dst, mask bitset.Set) {
	for i := range mask {
		dst[i] |= mask[i]
	}
}

// clearFrom removes every bit of mask from dst in place; callers only clear
// masks they previously or'ed in and masks of co-selected candidates are
// disjoint, so this is an exact undo.
func clearFrom(dst, mask bitset.Set) {
	for i := range mask {
		dst[i] &^= mask[i]
	}
}

// withMin returns a copy of reqs demanding at least t from every unfrozen
// worker (t <= 0 leaves them free).
func (l *lexSolver) withMin(reqs []lexReq, unfrozen []int, t float64) []lexReq {
	out := append([]lexReq(nil), reqs...)
	for _, w := range unfrozen {
		out[w] = lexReq{min: t}
	}
	return out
}

// levelValues returns the ascending distinct payoff thresholds relevant to
// the unfrozen workers, always starting with 0 (the all-null floor).
func (l *lexSolver) levelValues(unfrozen []int) []float64 {
	vals := []float64{0}
	for _, w := range unfrozen {
		for _, r := range l.m.refs[w] {
			if r.Payoff > 0 {
				vals = append(vals, r.Payoff)
			}
		}
	}
	sort.Float64s(vals)
	out := vals[:1]
	for _, v := range vals[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// maxMin finds the largest threshold T such that every unfrozen worker can
// earn at least T simultaneously under reqs, by binary search over the
// distinct payoff values (feasibility is monotone: any joint strategy
// meeting a higher threshold meets every lower one). It returns T, a
// witness realizing it, and ok == false when even the frozen requirements
// alone are infeasible (or the budget ran out before the floor probe).
func (l *lexSolver) maxMin(reqs []lexReq, unfrozen []int) (float64, []int32, bool) {
	vals := l.levelValues(unfrozen)
	wit, ok := l.feasible(l.withMin(reqs, unfrozen, vals[0]))
	if !ok {
		return 0, nil, false
	}
	lo, hi := 0, len(vals)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if w2, ok := l.feasible(l.withMin(reqs, unfrozen, vals[mid])); ok {
			lo = mid
			wit = w2
		} else {
			hi = mid - 1
		}
	}
	return vals[lo], wit, true
}

// vectorOf maps a witness to its ascending-sorted payoff vector.
func (l *lexSolver) vectorOf(witness []int32) []float64 {
	out := make([]float64, len(witness))
	for w, si := range witness {
		if si != lexNull {
			out[w] = l.m.refs[w][si].Payoff
		}
	}
	sort.Float64s(out)
	return out
}

// lexLess reports whether ascending-sorted vector a is lexicographically
// smaller than b — i.e. b is the fairer (leximin-greater) outcome.
func lexLess(a, b []float64) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// solveLevels runs the freeze-and-recurse loop: per level, find the best
// bottleneck T, freeze every worker that provably cannot exceed it, and
// continue on the rest; when no worker is provably stuck, branch over the
// candidate bottleneck workers and keep the lexicographically best
// completion. It returns the final witness and whether the search completed
// (false after cancellation or budget exhaustion).
func (l *lexSolver) solveLevels(reqs []lexReq, unfrozen []int) ([]int32, bool) {
	var witness []int32
	for len(unfrozen) > 0 {
		t, wit, ok := l.maxMin(reqs, unfrozen)
		if !ok {
			return nil, false
		}
		witness = wit
		l.fallback = wit
		l.levels++

		// Freeze every worker that cannot exceed T while the others hold at
		// least T: any remaining solution pays it exactly T.
		base := l.withMin(reqs, unfrozen, t)
		var saturated []int
		for _, w := range unfrozen {
			next, has := l.m.nextAbove(w, t)
			if !has {
				saturated = append(saturated, w)
				continue
			}
			save := base[w]
			base[w] = lexReq{min: next}
			if _, ok := l.feasible(base); !ok {
				if l.canceled {
					return nil, false
				}
				saturated = append(saturated, w)
			}
			base[w] = save
		}
		if len(saturated) > 0 {
			for _, w := range saturated {
				reqs[w] = lexReq{min: t, pin: true}
			}
			unfrozen = removeAll(unfrozen, saturated)
			continue
		}

		// Ambiguous level: every unfrozen worker could individually exceed
		// T, yet jointly someone must sit at it. Try each candidate
		// bottleneck worker (it needs a strategy paying exactly T, or any
		// worker when T is the null floor) and keep the best completion.
		var bestWit []int32
		var bestVec []float64
		for _, w := range unfrozen {
			if t > 0 && !l.m.hasPayoff(w, t) {
				continue
			}
			if !l.step() {
				break
			}
			l.branches++
			reqsB := append([]lexReq(nil), reqs...)
			reqsB[w] = lexReq{min: t, pin: true}
			witB, okB := l.solveLevels(reqsB, removeAll(unfrozen, []int{w}))
			if !okB {
				if l.canceled {
					return nil, false
				}
				continue
			}
			vecB := l.vectorOf(witB)
			if bestWit == nil || lexLess(bestVec, vecB) {
				bestWit, bestVec = witB, vecB
			}
		}
		if bestWit == nil {
			return nil, false
		}
		return bestWit, true
	}

	if witness == nil {
		wit, ok := l.feasible(reqs)
		if !ok {
			return nil, false
		}
		witness = wit
	}
	return l.realize(reqs, witness), true
}

// removeAll returns items without every member of drop, preserving order.
func removeAll(items, drop []int) []int {
	out := make([]int, 0, len(items))
	for _, v := range items {
		skip := false
		for _, d := range drop {
			if v == d {
				skip = true
				break
			}
		}
		if !skip {
			out = append(out, v)
		}
	}
	return out
}

// realize re-selects concrete strategies for the fully frozen requirement
// set, maximizing total reward among the realizations of the (already
// fixed) payoff vector with a dense Hungarian matching over workers ×
// allowed candidates. The matching relaxes point-disjointness, so its
// result is adopted only when the selected candidates are pairwise
// disjoint; otherwise the proven witness stands.
func (l *lexSolver) realize(reqs []lexReq, witness []int32) []int32 {
	m := l.m
	var rows []int
	for w := range reqs {
		if reqs[w].required() && reqs[w].pin {
			rows = append(rows, w)
		}
	}
	if len(rows) == 0 {
		return witness
	}

	// Dense column set: the union of the rows' allowed candidates.
	colIdx := make(map[int]int)
	var cols []int
	for _, w := range rows {
		lo, hi := m.allowedRange(w, reqs[w])
		for si := lo; si < hi; si++ {
			c := int(m.refs[w][si].Cand)
			if _, ok := colIdx[c]; !ok {
				colIdx[c] = len(cols)
				cols = append(cols, c)
			}
		}
	}
	if len(rows) > len(cols) {
		return witness
	}
	var rewardSum float64
	for _, c := range cols {
		rewardSum += m.colReward[c]
	}
	// An allowed cell outweighs any forbidden completion: matched columns
	// are distinct, so a matching's reward never exceeds rewardSum and a
	// bonus above it makes cardinality-on-allowed dominate.
	bonus := rewardSum + 1
	weights := make([][]float64, len(rows))
	for i, w := range rows {
		row := make([]float64, len(cols))
		lo, hi := m.allowedRange(w, reqs[w])
		for si := lo; si < hi; si++ {
			c := int(m.refs[w][si].Cand)
			row[colIdx[c]] = bonus + m.colReward[c]
		}
		weights[i] = row
	}
	rowCol, _ := hungarianMax(weights)
	if rowCol == nil {
		return witness
	}

	out := append([]int32(nil), witness...)
	used := bitset.New(m.points)
	for i, w := range rows {
		c := cols[rowCol[i]]
		if weights[i][rowCol[i]] == 0 {
			return witness // matched a forbidden cell: no all-allowed matching
		}
		mask := m.colMask[c]
		if used.Intersects(mask) {
			return witness // reward-optimal matching overlaps; keep the proven one
		}
		orInto(used, mask)
		out[w] = l.strategyFor(w, reqs[w], c)
	}
	return out
}

// Name implements Assigner.
func (Lexifair) Name() string { return "LEXIFAIR" }

// Assign implements Assigner.
func (lx Lexifair) Assign(ctx context.Context, s *game.State) (*game.Result, error) {
	g := s.Generator()
	in := g.Instance()
	if len(in.Workers) == 0 {
		return nil, game.ErrNoWorkers
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := obs.SpanFromContext(ctx)
	msp := sp.Child("lexifair.matrix")
	m, err := newLexMatrix(g, s.Lists())
	msp.End()
	if err != nil {
		return nil, err
	}
	budget := lx.NodeBudget
	if budget <= 0 {
		budget = lexDefaultBudget
	}
	l := &lexSolver{m: m, ctx: ctx, budget: budget}
	reqs := make([]lexReq, len(in.Workers))
	unfrozen := make([]int, len(in.Workers))
	for w := range unfrozen {
		unfrozen[w] = w
	}
	lsp := sp.Child("lexifair.levels")
	witness, ok := l.solveLevels(reqs, unfrozen)
	lsp.SetAttrInt("levels", l.levels)
	lsp.SetAttrInt("nodes", l.nodes)
	lsp.SetAttrInt("branches", l.branches)
	lsp.End()
	if l.canceled {
		return nil, ctx.Err()
	}
	if !ok {
		// Budget exhausted: serve the best bottleneck realization reached.
		witness = l.fallback
		if witness == nil {
			witness = make([]int32, len(in.Workers))
			for w := range witness {
				witness[w] = lexNull
			}
		}
	}

	a := model.NewAssignment(len(in.Workers))
	for w, si := range witness {
		if si != lexNull {
			a.Routes[w] = g.RefSeq(m.refs[w][si]).Clone()
		}
	}
	return &game.Result{
		Assignment: a,
		Summary:    payoff.Summarize(in, a),
		Iterations: l.levels,
		Converged:  ok && !l.overBudget,
	}, nil
}

// Verify implements Certified with VerifyLexifair at the default node
// budget.
func (Lexifair) Verify(s *game.State) error {
	return VerifyLexifair(context.Background(), s, 0)
}

// VerifyLexifair is the independent leximin certificate used by the audit
// layer: it re-solves every frozen level from the instance alone and checks
// that the payoff vector of the assignment loaded into s (see
// game.State.LoadAssignment) is level-wise unimprovable — at each level,
// with every poorer worker held at its achieved payoff, the minimum over
// the remaining workers cannot be raised, and every worker frozen at the
// level is saturated (lifting it strictly above the level while flooring
// everyone else at their achieved payoff is infeasible, so the assignment
// is not pointwise dominated). The achieved payoffs are s.Payoffs; the
// re-solve builds its own payoff matrix over copies of s's strategy lists
// and does not modify s. nodeBudget caps the verifier's own search (0 =
// the solver default); a nil error certifies the assignment.
func VerifyLexifair(ctx context.Context, s *game.State, nodeBudget int) error {
	// The matrix sorts its lists, and s's lists may be shared with a caller
	// that keeps their order (game.NewStateWithStrategies): sort copies.
	lists := make([][]vdps.StrategyRef, len(s.Current))
	for w, list := range s.Lists() {
		lists[w] = slices.Clone(list)
	}
	m, err := newLexMatrix(s.Generator(), lists)
	if err != nil {
		return err
	}
	achieved := s.Payoffs
	if nodeBudget <= 0 {
		nodeBudget = lexDefaultBudget
	}
	l := &lexSolver{m: m, ctx: ctx, budget: nodeBudget}
	reqs := make([]lexReq, len(achieved))
	unfrozen := make([]int, len(achieved))
	for w := range unfrozen {
		unfrozen[w] = w
	}
	for len(unfrozen) > 0 {
		t, _, ok := l.maxMin(reqs, unfrozen)
		if l.canceled {
			return ctx.Err()
		}
		if !ok {
			return fmt.Errorf("assign: lexifair certificate: frozen levels are jointly infeasible")
		}
		minAch := math.Inf(1)
		for _, w := range unfrozen {
			if achieved[w] < minAch {
				minAch = achieved[w]
			}
		}
		if minAch != t {
			return fmt.Errorf(
				"assign: lexifair certificate: unfrozen minimum is %v but an independent re-solve achieves %v",
				minAch, t)
		}
		// Every worker at this level must be saturated: with all other
		// unfrozen workers floored at their achieved payoffs, it must be
		// infeasible to lift the worker strictly above t. A feasible lift
		// means the assignment is pointwise dominated — some worker was
		// left at the bottleneck that a better realization raises. Without
		// this probe an all-null assignment would certify on any instance
		// whose true bottleneck is 0.
		var level []int
		for _, w := range unfrozen {
			if achieved[w] != t {
				continue
			}
			if up, hasUp := l.m.nextAbove(w, t); hasUp {
				probe := append([]lexReq(nil), reqs...)
				for _, u := range unfrozen {
					if u != w {
						probe[u] = lexReq{min: achieved[u]}
					}
				}
				probe[w] = lexReq{min: up}
				if _, liftable := l.feasible(probe); liftable {
					return fmt.Errorf(
						"assign: lexifair certificate: worker %d is held at %v but %v is achievable without lowering anyone",
						w, t, up)
				}
				if l.canceled {
					return ctx.Err()
				}
			}
			level = append(level, w)
		}
		for _, w := range level {
			reqs[w] = lexReq{min: t, pin: true}
		}
		unfrozen = removeAll(unfrozen, level)
	}
	if l.overBudget {
		return fmt.Errorf("assign: lexifair certificate: verification budget exhausted")
	}
	return nil
}
