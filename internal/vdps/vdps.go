// Package vdps generates Valid Delivery Point Sets (paper §IV, Algorithm 1).
//
// A Center-origin VDPS (C-VDPS) is a set Q of delivery points for which a
// visiting sequence starting at the distribution center exists that reaches
// every point of Q before its earliest task expiration. The paper computes
// these once per center with a subset dynamic program and then checks, for
// each worker, whether the worker's approach time to the center still allows
// the sequence to meet the deadlines.
//
// We implement the DP as a deadline-constrained Held-Karp: for each subset Q
// and last point j we keep the Pareto frontier of (time, slack) states,
// where time is the center-origin travel time of the sequence and
// slack = min over the visited prefix of (dp.e - arrival(dp)). A worker with
// approach time a can use a state iff a <= slack, so per-worker validity is a
// frontier scan rather than a re-run of the DP. This subsumes the paper's
// "record only the minimal-travel-time sequence" rule (the min-time state is
// always on the frontier) while also retaining slower-but-slacker sequences
// that remain feasible for distant workers.
//
// The distance-constrained pruning strategy (threshold ε) discards DP
// extensions whose leg between consecutive delivery points exceeds ε,
// exactly as in §IV. Which points can follow a point, and at what distance
// and time, is one successor table, built from the travel model (see
// neighborhoods): the DP, its restricted re-runs and the sampler all read
// it.
//
// Whether a worker can take a candidate, and what the candidate pays it,
// is one rule, Rule.Strategy: the set respects the worker's MaxDP, a
// frontier state's slack covers the worker's approach time (for a worker
// with its own speed, the model accepts the sequence at that speed), and
// the payoff is the set's reward over approach plus travel time
// (Definition 7). Every strategy list is built, spliced and re-priced
// through it, and game prices the candidates it reads from the table with
// it. StrategySpaces' chain repeats its expression inline, and ForWorker
// states the rule independently, as the tests' oracle.
//
// Beside the candidate table the generator keeps flat per-candidate arrays
// — maxSlack, setSize and low (the set's lowest point) — so the scans over
// many candidates or strategies test a candidate without loading its
// struct: the rule itself, the strategy-list builds, the singleton gather
// game's random start draws from, and game's best response, whose list scan
// skips an entry whose lowest point another worker holds and whose walk
// groups the live candidates by lowest point. The repairs reach the
// candidates a delta touched through an index of the table by point, built
// by IndexPoints or at a generator's first repair (see pointIndex).
//
// The DP runs on flat per-level arrays. Each level's (set, last) nodes are
// grouped by set with a stable counting sort on their ascending point
// tuples, which also lays the candidates out in lexicographic order. Each
// frontier entry links to its parent entry one level down. A run records
// each level's candidates in its working arrays and copies them out once,
// at its end, to slabs of their exact size, building a sequence only for
// the entries that survive into a candidate's frontier. The working arrays
// are kept between runs, within a size bound, so a run allocates little
// beyond its candidates. Generation order is fixed — nodes in creation
// order, successors in ascending point order, frontier entries in list
// order — which gives the tie rule: when two sequences of one set have
// exactly the same (Time, Slack), the first one generated survives. The
// choice is the same on every call, and the ε-ball lists cannot change it:
// they hold a point's successors in the ascending order of the every-point
// lists, whose points outside the ball the ε rule would drop anyway.
package vdps

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"fairtask/internal/geo"
	"fairtask/internal/grid"
	"fairtask/internal/model"
	"fairtask/internal/obs"
)

// Options configure generation.
type Options struct {
	// Epsilon is the distance-constrained pruning threshold in distance
	// units (km). Zero or +Inf disables pruning (the paper's "-W" variants).
	Epsilon float64
	// MaxSize caps the size of generated sets. Zero derives the cap from the
	// instance's workers: max over w.MaxDP, treating MaxDP == 0 (unlimited)
	// as the number of delivery points.
	MaxSize int
	// MaxSets aborts generation when more than this many C-VDPSs would be
	// produced, protecting against exponential blow-ups on dense instances.
	// Zero means no limit.
	MaxSets int
	// DisableIndex turns off the spatial grid index that lists each point's
	// ε-neighbours as its successors: every point then succeeds every
	// point, and the ε rule tests each leg. Only useful for the indexing
	// ablation benchmark.
	DisableIndex bool
}

// ErrTooManySets is returned when Options.MaxSets is exceeded.
var ErrTooManySets = errors.New("vdps: candidate set limit exceeded")

// State is one Pareto-optimal sequence for a candidate set: Seq is the
// center-origin visiting order, Time its center-origin travel time (arrival
// at the last point), and Slack the minimum over the sequence prefix of
// (point expiry - arrival). A worker with approach time a can execute Seq
// within all deadlines iff a <= Slack.
type State struct {
	Seq   model.Route
	Time  float64
	Slack float64
}

// Candidate is one C-VDPS: a set of delivery points, stored once as its
// points, with its Pareto frontier of feasible sequences and cached
// aggregate reward.
//
// Points, Frontier and each frontier state's Seq are owned by the
// generator: they are capacity-limited windows into slabs shared by many
// candidates, so appending to one copies it, and they must not be modified
// in place. A slab outlives the candidates RepairExpiries drops from it
// until the table is compacted, which happens once the dropped bytes
// exceed the live ones. Reward is the candidate's own (RepairRewards
// rewrites it).
//
// A candidate RepairExpiries dropped stays in the table as a tombstone until
// the next compaction: the zero Candidate, with no points or frontier (see
// Live).
type Candidate struct {
	// Points holds the set's delivery point indices in ascending order.
	Points []int
	// Frontier holds the non-dominated (Time, Slack) states, sorted by
	// ascending Time. Dominance prunes every state that is no slower and no
	// slacker than another, so a slower state survives only with strictly
	// more slack: Slack is strictly ascending along the frontier too. Of
	// two sequences with exactly equal (Time, Slack), the first generated
	// is kept (see the package doc).
	Frontier []State
	// Reward is the total reward of all tasks on the set's points.
	Reward float64
}

// The slab sizes of a point index and a frontier state, and the size of one
// table entry: a Candidate plus its maxSlack, setSize and low.
const (
	intBytes   = int(unsafe.Sizeof(int(0)))
	stateBytes = int(unsafe.Sizeof(State{}))
	entryBytes = int(unsafe.Sizeof(Candidate{})) + 8 + 4 + 4
)

// bytes returns the bytes the candidate holds: its table entry and the slab
// bytes it references — its points, frontier states and their sequences,
// each of which visits every point of the set once.
func (c *Candidate) bytes() int {
	n := len(c.Points)
	return entryBytes + n*intBytes + len(c.Frontier)*(stateBytes+n*intBytes)
}

// Live reports whether the candidate is live rather than a tombstone: every
// live candidate holds at least one point.
func (c *Candidate) Live() bool { return len(c.Points) > 0 }

// MinTime returns the minimal center-origin travel time over the frontier.
func (c *Candidate) MinTime() float64 { return c.Frontier[0].Time }

// MaxSlack returns the maximal slack over the frontier, i.e. the largest
// worker approach time for which the candidate remains valid.
func (c *Candidate) MaxSlack() float64 {
	return c.Frontier[len(c.Frontier)-1].Slack
}

// bestForIndex returns the frontier index of the minimal-time state usable
// by a worker with the given approach time, or ok == false when no state
// fits.
func (c *Candidate) bestForIndex(approach float64) (int, bool) {
	// Frontier is sorted by ascending time (and, by Pareto dominance,
	// ascending slack); scanning in time order makes the first state with
	// Slack >= approach the fastest usable one.
	for fi := range c.Frontier {
		if c.Frontier[fi].Slack >= approach {
			return fi, true
		}
	}
	return 0, false
}

// bestForScaledIndex returns the frontier index of the candidate's
// minimal-time sequence that worker w can execute within all deadlines at
// the worker's own speed, checked exactly via the model (used when the
// worker overrides the default speed), or ok == false when none can.
func (c *Candidate) bestForScaledIndex(in *model.Instance, w int) (int, bool) {
	for fi := range c.Frontier { // sorted by ascending center-origin time
		if in.RouteFeasible(w, c.Frontier[fi].Seq) {
			return fi, true
		}
	}
	return 0, false
}

// Generator holds the generated candidates for one instance and answers
// per-worker validity queries.
type Generator struct {
	inst       *model.Instance
	opt        Options
	candidates []Candidate
	stats      Stats
	// maxSlack[ci] and setSize[ci] mirror candidates[ci].MaxSlack() and
	// len(candidates[ci].Points): flat arrays let the per-worker scans —
	// Rule.Strategy's feasibility test, StrategySpaces' chain filter and
	// list-size bounds, Singletons' gather — reject candidates without
	// touching the candidate structs (and their pointer-chased frontiers) at
	// all. low[ci] is candidates[ci].Points[0], the set's lowest point, which
	// game's best-response scan tests against the owner table before it
	// loads the candidate, and by which game's best-response walk groups the
	// live candidates (see LowestPoints). A tombstone's entries are -Inf, 0
	// and 0: every scan already rejects the first two, no strategy list holds
	// a tombstone whose low could be read, and the walk's grouping skips a
	// setSize of 0.
	maxSlack []float64
	setSize  []int32
	low      []int32
	// byPoint indexes the table by point for the repairs; nil until the
	// first repair reads it, and again after a compaction (see pointIndex).
	byPoint pointIndex
	// liveBytes is the bytes the live candidates hold (see bytes), and
	// staleBytes those of the candidates RepairExpiries dropped since the
	// table was last compacted: their tombstones' table entries and an upper
	// bound on the slab bytes the live candidates pin for them.
	liveBytes, staleBytes int
	// nbrs caches each point's ascending successors and legs the ε-ball
	// lists' legs, aligned with them; see neighborhoods.
	nbrs [][]int
	legs [][]leg
}

// leg is the travel from a point to one of its successors: the distance the
// ε rule tests and the time an extension adds. A leg the ε rule drops is
// never taken, so its time is left zero.
type leg struct{ dist, time float64 }

// appendLegs appends to dst the legs from p to each point of succ under the
// travel model. It is the package's only computation of a leg between two
// delivery points. Each leg's distance is evaluated once, and a kept leg's
// time is that distance over the model's speed, which is how
// travel.Model.Time defines it.
func appendLegs(dst []leg, in *model.Instance, eps float64, p int, succ []int) []leg {
	a := in.Points[p].Loc
	speed := in.Travel.Speed()
	dst = slices.Grow(dst, len(succ))
	for _, q := range succ {
		l := leg{dist: in.Travel.Distance(a, in.Points[q].Loc)}
		if !(l.dist > eps) { // a leg the ε rule keeps
			l.time = l.dist / speed
		}
		dst = append(dst, l)
	}
	return dst
}

// successors is one reader's handle on the successor table: nbrs[p] lists
// p's successors in ascending order, and at gives their legs.
type successors struct {
	in   *model.Instance
	eps  float64
	nbrs [][]int
	legs [][]leg // the ε-ball lists' cached legs; nil for every-point lists
	row  []leg   // the every-point row at last computed
}

// at returns p's successors and, aligned with them, their legs. An
// every-point row's legs are computed into s.row on each call, so they
// hold until the next call.
func (s *successors) at(p int) ([]int, []leg) {
	if s.legs != nil {
		return s.nbrs[p], s.legs[p]
	}
	s.row = appendLegs(s.row[:0], s.in, s.eps, p, s.nbrs[p])
	return s.nbrs[p], s.row
}

// Stats reports the work performed during generation, used by the pruning
// ablation experiments.
type Stats struct {
	// SubsetsExplored counts distinct (set, last) DP states created.
	SubsetsExplored int
	// ExtensionsPruned counts DP extensions discarded by the ε rule.
	ExtensionsPruned int
	// Candidates is the number of C-VDPSs produced: the live candidates,
	// tombstones left out.
	Candidates int
	// MaxSetSize is the size cap that was applied.
	MaxSetSize int
}

// Generate runs the C-VDPS dynamic program for the instance.
func Generate(in *model.Instance, opt Options) (*Generator, error) {
	return GenerateContext(context.Background(), in, opt)
}

// GenerateContext is Generate with cancellation: the dynamic program checks
// ctx at every level boundary and periodically inside a level's expansion,
// returning ctx.Err() when it is done. Candidate generation dominates the
// solve time of large instances, so this is where a canceled request saves
// the most work.
func GenerateContext(ctx context.Context, in *model.Instance, opt Options) (*Generator, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("vdps: %w", err)
	}
	_, sp := obs.StartSpan(ctx, "vdps.generate")
	defer sp.End()
	if err := fpGenerate.Hit(ctx); err != nil {
		return nil, fmt.Errorf("vdps: generate: %w", err)
	}
	maxSize := EffectiveMaxSize(in, opt)
	g := &Generator{inst: in, opt: opt}
	d := g.newDP(maxSize)
	defer d.release()
	err := d.run(ctx, opt.MaxSets, 0)
	if errors.Is(err, ErrTooManySets) {
		return nil, fmt.Errorf("%w: more than %d", ErrTooManySets, opt.MaxSets)
	}
	if err != nil {
		return nil, err
	}
	g.stats = d.stats
	g.stats.MaxSetSize = maxSize
	g.stats.Candidates = d.made.cands
	g.reserveTable(d.made.cands, d.made.cands)
	d.appendTable(g)
	g.liveBytes = d.made.bytes()
	return g, nil
}

// finish derives the candidate count, the per-candidate feasibility arrays
// the batch strategy scans use and the live slab bytes from a candidate
// table built outside the DP (the sampler's). A constructor must end with
// it, or fill the same fields as the DP's table pass does, so that
// WorkerStrategies sees a complete view; RepairExpiries keeps them up to
// date as it tombstones and appends candidates.
func (g *Generator) finish() {
	n := len(g.candidates)
	g.stats.Candidates = n
	g.maxSlack, g.setSize, g.low = make([]float64, 0, n), make([]int32, 0, n), make([]int32, 0, n)
	for ci := range g.candidates {
		g.appendFlat(&g.candidates[ci])
		g.liveBytes += g.candidates[ci].bytes()
	}
}

// reserveTable makes room in the candidate table and its flat arrays for k
// more candidates, reallocating each that must grow to a capacity of
// max(its length + k, c).
func (g *Generator) reserveTable(k, c int) {
	g.candidates = reserve(g.candidates, k, c)
	g.maxSlack = reserve(g.maxSlack, k, c)
	g.setSize = reserve(g.setSize, k, c)
	g.low = reserve(g.low, k, c)
}

// appendFlat appends the flat entries of candidate c, the table's next:
// its maxSlack, setSize and low.
func (g *Generator) appendFlat(c *Candidate) {
	g.maxSlack = append(g.maxSlack, c.MaxSlack())
	g.setSize = append(g.setSize, int32(len(c.Points)))
	g.low = append(g.low, int32(c.Points[0]))
}

// epsilon returns the options' pruning threshold, +Inf when disabled.
func epsilon(opt Options) float64 {
	if opt.Epsilon <= 0 {
		return math.Inf(1)
	}
	return opt.Epsilon
}

// neighborhoods returns the successor relation every reader of the
// generator uses — the DP, its restricted re-runs, their hop bound and the
// sampler — as a handle whose at method gives a point's successors in
// ascending order and each successor's leg from it under the travel model.
// With ε enabled the successors are the point's Euclidean ε-ball
// (grid.Neighborhoods), and their legs are cached. That ball is a superset
// filter for metrics whose distance is >= Euclidean (e.g. Manhattan), so its
// users keep checking each leg against ε. With ε disabled, or DisableIndex set,
// every point succeeds every point (one shared index slice), and a point's
// legs are computed each time a reader asks for them: cached, they would
// hold 16·n² bytes for the generator's lifetime, and a center of 10,000
// points would pin 1.6 GB. The lists are built on first use and kept:
// Rebind's contract fixes the delivery points and the travel model for the
// generator's lifetime. The cached legs share one backing array.
func (g *Generator) neighborhoods() successors {
	in := g.inst
	n := len(in.Points)
	eps := epsilon(g.opt)
	if g.nbrs == nil && n > 0 {
		if math.IsInf(eps, 1) || g.opt.DisableIndex {
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			g.nbrs = make([][]int, n)
			for p := range g.nbrs {
				g.nbrs[p] = all
			}
		} else {
			locs := make([]geo.Point, n)
			for i := range in.Points {
				locs[i] = in.Points[i].Loc
			}
			g.nbrs = grid.Neighborhoods(locs, eps)
			total := 0
			for _, nb := range g.nbrs {
				total += len(nb)
			}
			flat := make([]leg, 0, total)
			g.legs = make([][]leg, n)
			for p, nb := range g.nbrs {
				i := len(flat)
				flat = appendLegs(flat, in, eps, p, nb)
				g.legs[p] = flat[i:len(flat):len(flat)]
			}
		}
	}
	return successors{in: in, eps: eps, nbrs: g.nbrs, legs: g.legs}
}

// candCompare is the candidates' own order: by set size, then lexicographic
// point set. Every constructor lays the table out in it; RepairExpiries
// appends regenerated candidates after the retained ones instead, so it is
// ComparePayoff's tie rule rather than the table index. Exactly one live
// candidate exists per point set, so the order is total on live candidates.
func candCompare(a, b *Candidate) int {
	return cmp.Or(cmp.Compare(len(a.Points), len(b.Points)), slices.Compare(a.Points, b.Points))
}

// derivedMaxSize returns the largest set size any worker may accept.
func derivedMaxSize(in *model.Instance) int {
	max := 0
	for i := range in.Workers {
		m := in.Workers[i].MaxDP
		if m == 0 {
			return len(in.Points)
		}
		if m > max {
			max = m
		}
	}
	if max == 0 {
		// No workers: generate singletons only; nothing will consume more.
		return 1
	}
	return max
}

// mergeFrontier inserts st into a candidate-level frontier with dominance.
func mergeFrontier(frontier []State, st State) []State {
	for _, ex := range frontier {
		if ex.Time <= st.Time && ex.Slack >= st.Slack {
			return frontier
		}
	}
	kept := frontier[:0]
	for _, ex := range frontier {
		if !(st.Time <= ex.Time && st.Slack >= ex.Slack) {
			kept = append(kept, ex)
		}
	}
	return append(kept, st)
}

func sortFrontier(f []State) {
	slices.SortFunc(f, func(a, b State) int { return cmp.Compare(a.Time, b.Time) })
}

// Candidates returns the candidate table: every generated C-VDPS, and after
// RepairExpiries the tombstones of the dropped ones, which readers skip (see
// Candidate.Live). The slice is shared; callers must not modify it.
func (g *Generator) Candidates() []Candidate { return g.candidates }

// Stats returns generation statistics.
func (g *Generator) Stats() Stats { return g.stats }

// Instance returns the instance the generator was built for.
func (g *Generator) Instance() *model.Instance { return g.inst }

// WorkerVDPS is one strategy available to a specific worker: a candidate set
// together with the fastest sequence the worker can execute and the derived
// payoff (Definition 7).
type WorkerVDPS struct {
	// Candidate indexes Generator.Candidates().
	Candidate int
	// Seq is the worker's visiting order (center-origin).
	Seq model.Route
	// Time is the worker's total travel time: approach + center-origin time.
	Time float64
	// Reward is the total reward of the set's tasks.
	Reward float64
	// Payoff is Reward / Time.
	Payoff float64
}

// ForWorker returns the strategies valid for worker index w: every candidate
// whose size respects the worker's maxDP and whose frontier contains a
// sequence the worker can complete within all deadlines. Strategies are
// ordered by descending payoff and, on ties, by ascending set size, then
// lexicographic point set — the order ComparePayoff defines, written out
// here independently so tests can use this full form as its oracle. No
// production path calls it: solvers and the audit read the compact lists of
// WorkerStrategies, and TestWorkerStrategiesMatchForWorker pins the two
// forms to each other. Tombstones fit no worker: they have no frontier.
//
// For workers using the instance's default speed the check is exact and
// O(frontier) via the slack trick. For workers with a speed override the
// frontier sequences are re-checked exactly at the worker's speed; note the
// frontier keeps only sequences Pareto-optimal at the default speed, so in
// rare geometries a heterogeneous-speed worker may miss a sequence that is
// feasible only for its speed (every returned strategy is still exactly
// feasible — the approximation can only under-report options).
func (g *Generator) ForWorker(w int) []WorkerVDPS {
	var out []WorkerVDPS
	approach := g.inst.ApproachTime(w)
	maxDP := g.inst.Workers[w].MaxDP
	factor := g.inst.SpeedFactor(w)
	for ci := range g.candidates {
		c := &g.candidates[ci]
		if maxDP > 0 && len(c.Points) > maxDP {
			continue
		}
		var fi int
		var ok bool
		if factor == 1 {
			fi, ok = c.bestForIndex(approach)
		} else {
			// Heterogeneous speed: the slack shortcut does not apply (every
			// center-origin leg scales by the worker's speed factor), so
			// re-check each frontier sequence exactly. Frontiers are tiny.
			fi, ok = c.bestForScaledIndex(g.inst, w)
		}
		if !ok {
			continue
		}
		st := &c.Frontier[fi]
		total := approach + factor*st.Time
		if total <= 0 {
			// A worker standing at the center with a zero-length route
			// cannot happen (routes are non-empty and distinct points), but
			// guard against degenerate geometry producing zero travel time.
			continue
		}
		out = append(out, WorkerVDPS{
			Candidate: ci,
			Seq:       st.Seq,
			Time:      total,
			Reward:    c.Reward,
			Payoff:    c.Reward / total,
		})
	}
	slices.SortFunc(out, func(a, b WorkerVDPS) int {
		if a.Payoff != b.Payoff {
			if a.Payoff > b.Payoff {
				return -1
			}
			return 1
		}
		pa, pb := g.candidates[a.Candidate].Points, g.candidates[b.Candidate].Points
		if len(pa) != len(pb) {
			return len(pa) - len(pb)
		}
		return slices.Compare(pa, pb)
	})
	return out
}

// StrategyRef is a worker strategy in compact reference form: the payoff the
// strategy yields for the worker plus the (candidate, frontier-entry) pair
// that identifies its visiting sequence. At 16 pointer-free bytes it is what
// game.State stores per strategy — the full WorkerVDPS form materializes
// ~4.5x more memory per entry and, via its route slice, forces the garbage
// collector to scan the entire strategy space. Resolve the sequence lazily
// with Generator.RefSeq and the point set with Generator.RefPoints.
type StrategyRef struct {
	// Payoff is Reward / Time for this worker (Definition 7).
	Payoff float64
	// Cand indexes Generator.Candidates().
	Cand int32
	// Entry indexes the candidate's Frontier: the fastest state the worker
	// can execute within all deadlines.
	Entry int32
}

// RefSeq returns the center-origin visiting sequence a StrategyRef selects.
// The route is shared with the generator; callers must not modify it.
func (g *Generator) RefSeq(r StrategyRef) model.Route {
	return g.candidates[r.Cand].Frontier[r.Entry].Seq
}

// RefPoints returns the delivery-point set of a StrategyRef, in ascending
// order. The slice is shared with the generator; callers must not modify it.
func (g *Generator) RefPoints(r StrategyRef) []int {
	return g.candidates[r.Cand].Points
}

// SetSize returns the number of delivery points in candidate ci, read from
// a flat array, so a scan over many strategies can test set sizes without
// loading the candidate structs.
func (g *Generator) SetSize(ci int32) int32 { return g.setSize[ci] }

// LowestPoints returns each candidate's lowest delivery point, indexed by
// candidate: Points[0], read from a flat array, so a scan over many
// strategies can test one point of each set without loading the candidate
// structs. A tombstone's entry is 0, so a reader that groups candidates by
// it skips tombstones on SetSize. The slice is shared and RepairExpiries
// replaces it; callers must not modify or keep it.
func (g *Generator) LowestPoints() []int32 { return g.low }

// ComparePayoff is the one preference rule between a worker's strategies:
// higher payoff first and, on equal payoffs, the candidate first in the
// candidates' own order — smaller set, then lexicographically smaller point
// set. The tie rule reads the candidates, not their table index, so a table
// RepairExpiries appended to ranks ties as a fresh Generate of the same
// instance does. Within one worker's list the point sets are distinct, so
// it is a strict total order; its minimum over the strategies a worker can
// hold is the worker's top strategy. Strategy lists are not stored in this
// order (see WorkerStrategies): readers that need it compare or sort with it.
func (g *Generator) ComparePayoff(a, b StrategyRef) int {
	switch {
	case a.Payoff > b.Payoff:
		return -1
	case a.Payoff < b.Payoff:
		return 1
	}
	return g.compareCands(a, b)
}

// NthBest returns the k-th best of refs under ComparePayoff, counting from
// 0, as sorting refs by it would place at index k. It selects instead of
// sorting (Hoare's quickselect around the middle element), so it costs
// linear time on average, and it reorders refs. The refs must be distinct
// under ComparePayoff, as a worker's strategies on distinct candidates are;
// the pivot is recognized by its candidate, so comparing it with itself
// never reaches ComparePayoff's tie rule, which loads both candidates.
// The game's random draws select through it, so the strategy a draw takes
// depends only on the rule, not on the order the refs were gathered in.
func (g *Generator) NthBest(refs []StrategyRef, k int) StrategyRef {
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

// compareCands is ComparePayoff's tie rule, kept out of line so that the
// payoff comparison itself inlines into the sorts and scans that call it.
//
//go:noinline
func (g *Generator) compareCands(a, b StrategyRef) int {
	return candCompare(&g.candidates[a.Cand], &g.candidates[b.Cand])
}

// StrategyScratch carries the reusable gather buffer for batch
// WorkerStrategies calls. The zero value is ready to use; it must not be
// shared between goroutines.
type StrategyScratch struct {
	keys []StrategyRef
}

// WorkerStrategies returns worker w's strategies in compact reference form —
// the same candidates as ForWorker, in ascending candidate order rather than
// payoff order (sort with ComparePayoff where an order is needed) —
// allocated exactly at their final size.
//
// It gathers the reference Rule.Strategy gives for each candidate the
// worker can take into the reused scratch, then copies them once into an
// exact-size, pointer-free result the garbage collector never scans.
// Compared with building WorkerVDPS structs this moves ~4.5x fewer bytes
// through the allocator's zeroing and the GC (see docs/PERFORMANCE.md).
// StrategySpaces builds a whole state's lists to match it.
func (g *Generator) WorkerStrategies(w int, sc *StrategyScratch) []StrategyRef {
	rule := g.Rule(w)
	sc.keys = rule.gather(sc.keys[:0], 0, len(g.candidates))
	if len(sc.keys) == 0 {
		return nil
	}
	out := make([]StrategyRef, len(sc.keys))
	copy(out, sc.keys)
	return out
}

// Rule is one worker's strategy rule: Strategy says whether the worker can
// take a candidate and what the candidate pays it (Algorithm 1's slack test
// and Definition 7's payoff). It is the rule's one statement. Every
// strategy list is built, spliced and re-priced through it, and game's
// random start and best-response walk price the candidates they read from
// the table with it, so what they find equals the list entry bit for bit.
// StrategySpaces' chain repeats its expression inline, in the build's
// hottest loop, and ForWorker states the rule independently as the tests'
// oracle. Build a Rule with Generator.Rule.
type Rule struct {
	g                *Generator
	w                int
	approach, factor float64
	maxDP            int32
}

// Rule returns worker w's rule, read from the generator's instance.
func (g *Generator) Rule(w int) Rule {
	return Rule{
		g:        g,
		w:        w,
		approach: g.inst.ApproachTime(w),
		factor:   g.inst.SpeedFactor(w),
		maxDP:    int32(g.inst.Workers[w].MaxDP),
	}
}

// Strategy returns the StrategyRef the worker's list holds for candidate
// ci, or false when the worker cannot take it. The set must respect the
// worker's MaxDP; a default-speed worker needs maxSlack to cover its
// approach time and takes the fastest state that does, any other worker
// the fastest sequence it can execute at its own speed; and the total
// travel time must be positive. The payoff is the reward over that total.
// A default-speed worker's test reads the flat setSize and maxSlack arrays
// before it touches the candidate's frontier. A tombstone fits no worker:
// its maxSlack covers no approach time, not even a NaN one, and its
// frontier is empty.
//
// Rule's methods take a pointer: a scan calls Strategy once per candidate,
// and passing the rule's five fields by value cost a full-table gather
// about a quarter more.
func (rl *Rule) Strategy(ci int) (StrategyRef, bool) {
	g := rl.g
	if rl.maxDP > 0 && g.setSize[ci] > rl.maxDP {
		return StrategyRef{}, false
	}
	c := &g.candidates[ci]
	var fi int
	if rl.factor == 1 {
		if !(g.maxSlack[ci] >= rl.approach) {
			return StrategyRef{}, false
		}
		fi, _ = c.bestForIndex(rl.approach)
	} else {
		var ok bool
		if fi, ok = c.bestForScaledIndex(g.inst, rl.w); !ok {
			return StrategyRef{}, false
		}
	}
	total := rl.totalTime(c.Frontier[fi].Time)
	if total <= 0 {
		return StrategyRef{}, false
	}
	return StrategyRef{Payoff: c.Reward / total, Cand: int32(ci), Entry: int32(fi)}, true
}

// totalTime returns the worker's total travel time on a frontier state of
// center-origin time t: its approach time plus t at its own speed. At the
// default speed the product is exact, so the sum equals approach + t.
func (rl *Rule) totalTime(t float64) float64 {
	return rl.approach + rl.factor*t
}

// gather appends the strategies of candidates lo to hi-1 that the worker
// can take to keys, in ascending candidate order.
func (rl *Rule) gather(keys []StrategyRef, lo, hi int) []StrategyRef {
	for ci := lo; ci < hi; ci++ {
		if ref, ok := rl.Strategy(ci); ok {
			keys = append(keys, ref)
		}
	}
	return keys
}
