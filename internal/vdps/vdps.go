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
// exactly as in §IV.
package vdps

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"fairtask/internal/bitset"
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
	// DisableIndex turns off the spatial grid index used to enumerate
	// ε-neighbors during DP extensions, falling back to a full scan per
	// state. Only useful for the indexing ablation benchmark.
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

// Candidate is one C-VDPS: a set of delivery points with its Pareto frontier
// of feasible sequences and cached aggregate reward.
type Candidate struct {
	// Points holds the set's delivery point indices in ascending order.
	Points []int
	// Mask is the same set as a bit set, for O(1) disjointness tests.
	Mask bitset.Set
	// Frontier holds the non-dominated (Time, Slack) states, sorted by
	// ascending Time. Dominance prunes every state that is no slower and no
	// slacker than another, so a slower state survives only with strictly
	// more slack: Slack is strictly ascending along the frontier too.
	Frontier []State
	// Reward is the total reward of all tasks on the set's points.
	Reward float64
}

// MinTime returns the minimal center-origin travel time over the frontier.
func (c *Candidate) MinTime() float64 { return c.Frontier[0].Time }

// MaxSlack returns the maximal slack over the frontier, i.e. the largest
// worker approach time for which the candidate remains valid.
func (c *Candidate) MaxSlack() float64 {
	return c.Frontier[len(c.Frontier)-1].Slack
}

// BestFor returns the minimal-time state usable by a worker with the given
// approach time, or ok == false when no state fits.
func (c *Candidate) BestFor(approach float64) (State, bool) {
	if fi, ok := c.bestForIndex(approach); ok {
		return c.Frontier[fi], true
	}
	return State{}, false
}

// bestForIndex returns the frontier index BestFor would select.
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

// bestForScaled returns the candidate's minimal-time sequence that worker w
// can execute within all deadlines at the worker's own speed, checked
// exactly via the model (used when the worker overrides the default speed).
func (c *Candidate) bestForScaled(in *model.Instance, w int) (State, bool) {
	if fi, ok := c.bestForScaledIndex(in, w); ok {
		return c.Frontier[fi], true
	}
	return State{}, false
}

// bestForScaledIndex returns the frontier index bestForScaled would select.
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
	// len(candidates[ci].Points): flat arrays let the per-worker feasibility
	// scan in WorkerStrategies reject candidates without touching the
	// candidate structs (and their pointer-chased frontiers) at all.
	maxSlack []float64
	setSize  []int32
}

// Stats reports the work performed during generation, used by the pruning
// ablation experiments.
type Stats struct {
	// SubsetsExplored counts distinct (set, last) DP states created.
	SubsetsExplored int
	// ExtensionsPruned counts DP extensions discarded by the ε rule.
	ExtensionsPruned int
	// Candidates is the number of C-VDPSs produced.
	Candidates int
	// MaxSetSize is the size cap that was applied.
	MaxSetSize int
}

// dpState is a node in the subset DP: a (set, last) pair with its Pareto
// frontier of (time, slack, sequence) entries.
type dpState struct {
	set      bitset.Set
	last     int
	frontier []State
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
	maxSize := opt.MaxSize
	if maxSize <= 0 {
		maxSize = derivedMaxSize(in)
	}
	if maxSize > len(in.Points) {
		maxSize = len(in.Points)
	}
	eps := opt.Epsilon
	if eps <= 0 {
		eps = math.Inf(1)
	}

	g := &Generator{inst: in, opt: opt}
	g.stats.MaxSetSize = maxSize

	// Expiry and pairwise data reused across the DP.
	n := len(in.Points)
	expiry := make([]float64, n)
	for i := range in.Points {
		expiry[i] = in.Points[i].EarliestExpiry()
	}

	// With finite ε, precompute each point's ε-neighborhood with a spatial
	// grid so DP extensions only enumerate reachable successors. The
	// Euclidean-ball index is a superset filter for non-Euclidean metrics
	// whose distance is >= Euclidean (e.g. Manhattan), so the per-leg check
	// below remains the source of truth.
	var neighbors [][]int
	if !math.IsInf(eps, 1) && !opt.DisableIndex && n > 0 {
		locs := make([]geo.Point, n)
		for i := range in.Points {
			locs[i] = in.Points[i].Loc
		}
		neighbors = grid.New(locs, eps).Neighborhoods(eps)
	}

	// Level 1: singleton sequences from the center.
	level := make([]*dpState, 0, n)
	byCand := map[string]*Candidate{}
	for j := 0; j < n; j++ {
		t := in.Travel.Time(in.Center, in.Points[j].Loc)
		if t > expiry[j] {
			continue
		}
		st := State{Seq: model.Route{j}, Time: t, Slack: expiry[j] - t}
		ds := &dpState{set: bitset.Of(j), last: j, frontier: []State{st}}
		level = append(level, ds)
		g.stats.SubsetsExplored++
		g.addCandidate(byCand, ds)
	}

	// Levels 2..maxSize: extend every frontier state with every unvisited
	// point within ε of the current last point.
	all := allPoints(n)
	for size := 2; size <= maxSize && len(level) > 0; size++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next, pruned := expandLevel(ctx, g, level, all, neighbors, expiry, eps)
		g.stats.ExtensionsPruned += pruned
		g.stats.SubsetsExplored += len(next)
		if err := ctx.Err(); err != nil {
			// A cancellation observed mid-level leaves next incomplete;
			// abandon the partial expansion rather than emit wrong results.
			return nil, err
		}
		level = level[:0]
		for _, ds := range next {
			level = append(level, ds)
			g.addCandidate(byCand, ds)
			if opt.MaxSets > 0 && len(byCand) > opt.MaxSets {
				return nil, fmt.Errorf("%w: more than %d", ErrTooManySets, opt.MaxSets)
			}
		}
	}

	g.finalizeCandidates(byCand)
	return g, nil
}

// finalizeCandidates collects the generated candidate map into the flat,
// deterministically ordered candidate slice (by size, then lexicographic
// point set) and derives the per-candidate feasibility arrays the batch
// strategy scans use. Every Generator constructor — the exact DP and the
// sampler — must end with this so WorkerStrategies sees a complete view.
func (g *Generator) finalizeCandidates(byCand map[string]*Candidate) {
	g.candidates = make([]Candidate, 0, len(byCand))
	for _, c := range byCand {
		sortFrontier(c.Frontier)
		g.candidates = append(g.candidates, *c)
	}
	sort.Slice(g.candidates, func(i, j int) bool {
		return candLess(&g.candidates[i], &g.candidates[j])
	})
	g.stats.Candidates = len(g.candidates)
	g.maxSlack = make([]float64, len(g.candidates))
	g.setSize = make([]int32, len(g.candidates))
	for ci := range g.candidates {
		g.maxSlack[ci] = g.candidates[ci].MaxSlack()
		g.setSize[ci] = int32(len(g.candidates[ci].Points))
	}
}

// candLess is the deterministic candidate-table order every constructor
// establishes: by set size, then lexicographic point set. Exactly one
// candidate exists per point set, so the order is total.
func candLess(a, b *Candidate) bool {
	if len(a.Points) != len(b.Points) {
		return len(a.Points) < len(b.Points)
	}
	for k := range a.Points {
		if a.Points[k] != b.Points[k] {
			return a.Points[k] < b.Points[k]
		}
	}
	return false
}

// allPoints returns [0, n) as successor candidates; memoized per call site
// would not help since the slice is shared and read-only.
func allPoints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
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

// stateKey identifies a DP node. A comparable struct keys the level maps
// without the former set.Key()+"#"+strconv.Itoa(last) concatenation, which
// allocated a fresh string per DP transition.
type stateKey struct {
	set  string
	last int
}

func newStateKey(set bitset.Set, last int) stateKey {
	return stateKey{set: set.Key(), last: last}
}

// insert adds st to the state's Pareto frontier, dropping dominated entries.
// A state dominates another when it is no slower and no tighter.
func (ds *dpState) insert(st State) {
	for _, ex := range ds.frontier {
		if ex.Time <= st.Time && ex.Slack >= st.Slack {
			return // dominated by an existing state
		}
	}
	kept := ds.frontier[:0]
	for _, ex := range ds.frontier {
		if !(st.Time <= ex.Time && st.Slack >= ex.Slack) {
			kept = append(kept, ex)
		}
	}
	ds.frontier = append(kept, st)
}

// addCandidate merges the dpState's frontier into the candidate for its set.
func (g *Generator) addCandidate(byCand map[string]*Candidate, ds *dpState) {
	key := ds.set.Key()
	c := byCand[key]
	if c == nil {
		pts := ds.set.Values()
		var reward float64
		for _, p := range pts {
			reward += g.inst.Points[p].TotalReward()
		}
		c = &Candidate{Points: pts, Mask: ds.set.Clone(), Reward: reward}
		byCand[key] = c
	}
	for _, st := range ds.frontier {
		c.Frontier = mergeFrontier(c.Frontier, st)
	}
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
	sort.Slice(f, func(i, j int) bool { return f[i].Time < f[j].Time })
}

// Candidates returns all generated C-VDPSs. The slice is shared; callers
// must not modify it.
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
// ordered by descending payoff.
//
// For workers using the instance's default speed the check is exact and
// O(frontier) via the slack trick. For workers with a speed override the
// frontier sequences are re-checked exactly at the worker's speed; note the
// frontier keeps only sequences Pareto-optimal at the default speed, so in
// rare geometries a heterogeneous-speed worker may miss a sequence that is
// feasible only for its speed (every returned strategy is still exactly
// feasible — the approximation can only under-report options).
func (g *Generator) ForWorker(w int) []WorkerVDPS {
	return g.AppendForWorker(nil, w)
}

// AppendForWorker appends worker w's strategies (see ForWorker) to dst and
// returns the extended slice, sorting only the appended segment. It lets
// batch callers — game.NewState builds the strategy space of every worker —
// reuse one scratch buffer across workers instead of growing a fresh slice
// through repeated doublings per call.
func (g *Generator) AppendForWorker(dst []WorkerVDPS, w int) []WorkerVDPS {
	base := len(dst)
	out := dst
	approach := g.inst.ApproachTime(w)
	maxDP := g.inst.Workers[w].MaxDP
	factor := g.inst.SpeedFactor(w)
	for ci := range g.candidates {
		c := &g.candidates[ci]
		if maxDP > 0 && len(c.Points) > maxDP {
			continue
		}
		var st State
		var ok bool
		if factor == 1 {
			st, ok = c.BestFor(approach)
		} else {
			// Heterogeneous speed: the slack shortcut does not apply (every
			// center-origin leg scales by the worker's speed factor), so
			// re-check each frontier sequence exactly. Frontiers are tiny.
			st, ok = c.bestForScaled(g.inst, w)
		}
		if !ok {
			continue
		}
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
	// The comparator is a total order (the candidate index is unique), so
	// the sorted result is the same permutation whatever the algorithm; the
	// type-specialized slices.SortFunc avoids sort.Slice's reflect-based
	// swaps, which dominated NewState's profile on large instances.
	seg := out[base:]
	slices.SortFunc(seg, func(a, b WorkerVDPS) int {
		if a.Payoff != b.Payoff {
			if a.Payoff > b.Payoff {
				return -1
			}
			return 1
		}
		return a.Candidate - b.Candidate
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

// StrategyScratch carries the reusable key buffers for batch
// WorkerStrategies calls. The zero value is ready to use; it must not be
// shared between goroutines.
type StrategyScratch struct {
	keys, tmp []StrategyRef
}

// descBits maps a payoff to a uint64 whose unsigned ascending order is the
// payoff's descending order (the usual sign-flip trick for total-ordering
// float bits, complemented). Equal payoffs map to equal bits, so a stable
// sort on descBits preserves the candidate-ascending tie-break.
func descBits(p float64) uint64 {
	u := math.Float64bits(p)
	if u&(1<<63) != 0 {
		u = ^u
	} else {
		u |= 1 << 63
	}
	return ^u
}

// sortKeysByPayoffDesc orders keys by (payoff descending, insertion order
// ascending) with a stable byte-wise LSD radix sort: ~n work per pass with
// no comparator calls, several times faster than a comparison sort on the
// key count game states see. tmp must have the same length as keys; the
// returned slice is whichever buffer holds the sorted result. Passes whose
// digit is constant across all keys (common in the exponent bytes) are
// skipped.
func sortKeysByPayoffDesc(keys, tmp []StrategyRef) []StrategyRef {
	n := len(keys)
	var hist [256]int
	src, dst := keys, tmp
	for shift := uint(0); shift < 64; shift += 8 {
		for i := range hist {
			hist[i] = 0
		}
		for i := range src {
			hist[byte(descBits(src[i].Payoff)>>shift)]++
		}
		if hist[byte(descBits(src[0].Payoff)>>shift)] == n {
			continue
		}
		sum := 0
		for i := range hist {
			c := hist[i]
			hist[i] = sum
			sum += c
		}
		for i := range src {
			d := byte(descBits(src[i].Payoff) >> shift)
			dst[hist[d]] = src[i]
			hist[d]++
		}
		src, dst = dst, src
	}
	return src
}

// WorkerStrategies returns worker w's strategies in compact reference form —
// the same candidates in the same order as ForWorker — allocated exactly at
// their final size.
//
// It works in three phases: gather a (payoff, candidate, frontier-entry)
// reference per feasible candidate — rejecting infeasible candidates on the
// flat maxSlack/setSize arrays without touching the candidate structs — then
// radix-sort the 16-byte references, then copy them once into an exact-size,
// pointer-free result the garbage collector never scans. Compared with
// building WorkerVDPS structs this moves ~4.5x fewer bytes through the sort,
// the allocator's zeroing and the GC, which is what makes game.NewState's
// strategy-space construction cheap at population scale (see
// docs/PERFORMANCE.md).
func (g *Generator) WorkerStrategies(w int, sc *StrategyScratch) []StrategyRef {
	keys := sc.keys[:0]
	approach := g.inst.ApproachTime(w)
	maxDP := int32(g.inst.Workers[w].MaxDP)
	factor := g.inst.SpeedFactor(w)
	if factor == 1 {
		for ci, ms := range g.maxSlack {
			if ms < approach || (maxDP > 0 && g.setSize[ci] > maxDP) {
				continue
			}
			c := &g.candidates[ci]
			fi, _ := c.bestForIndex(approach) // maxSlack >= approach guarantees ok
			total := approach + c.Frontier[fi].Time
			if total <= 0 {
				continue
			}
			keys = append(keys, StrategyRef{Payoff: c.Reward / total, Cand: int32(ci), Entry: int32(fi)})
		}
	} else {
		// Heterogeneous speed: the slack shortcut does not apply, so every
		// size-eligible candidate's frontier is re-checked via the model.
		for ci := range g.candidates {
			if maxDP > 0 && g.setSize[ci] > maxDP {
				continue
			}
			c := &g.candidates[ci]
			fi, ok := c.bestForScaledIndex(g.inst, w)
			if !ok {
				continue
			}
			total := approach + factor*c.Frontier[fi].Time
			if total <= 0 {
				continue
			}
			keys = append(keys, StrategyRef{Payoff: c.Reward / total, Cand: int32(ci), Entry: int32(fi)})
		}
	}
	sc.keys = keys
	if len(keys) == 0 {
		return nil
	}
	if cap(sc.tmp) < len(keys) {
		sc.tmp = make([]StrategyRef, len(keys), cap(sc.keys))
	}
	// Keys were gathered in ascending candidate order, so the stable sort
	// yields the same (payoff desc, candidate asc) permutation as ForWorker.
	sorted := sortKeysByPayoffDesc(keys, sc.tmp[:len(keys)])
	out := make([]StrategyRef, len(sorted))
	copy(out, sorted)
	return out
}

// expandLevel computes the next-level states generated by the given
// current-level states. It returns the (set, last) map and the number of
// ε-pruned extensions; stats are left to the caller. Cancellation is polled
// every 64 states; on cancel the partial map is returned and the caller
// discards it.
func expandLevel(ctx context.Context, g *Generator, level []*dpState, all []int,
	neighbors [][]int, expiry []float64, eps float64) (map[stateKey]*dpState, int) {
	in := g.inst
	n := len(in.Points)
	next := map[stateKey]*dpState{}
	var pruned int
	for di, ds := range level {
		if di&0x3f == 0 && ctx.Err() != nil {
			return next, pruned
		}
		lastLoc := in.Points[ds.last].Loc
		succ := all
		if neighbors != nil {
			succ = neighbors[ds.last]
			// Extensions never enumerated thanks to the index still count
			// as pruned, keeping the stat comparable to the full scan.
			pruned += n - len(succ)
		}
		for _, q := range succ {
			if ds.set.Has(q) {
				continue
			}
			leg := in.Travel.Distance(lastLoc, in.Points[q].Loc)
			if leg > eps {
				pruned++
				continue
			}
			legTime := in.Travel.Time(lastLoc, in.Points[q].Loc)
			for _, st := range ds.frontier {
				nt := st.Time + legTime
				if nt > expiry[q] {
					continue
				}
				slack := st.Slack
				if s := expiry[q] - nt; s < slack {
					slack = s
				}
				newSet := ds.set.Clone().With(q)
				key := newStateKey(newSet, q)
				tgt := next[key]
				if tgt == nil {
					tgt = &dpState{set: newSet, last: q}
					next[key] = tgt
				}
				seq := append(st.Seq.Clone(), q)
				tgt.insert(State{Seq: seq, Time: nt, Slack: slack})
			}
		}
	}
	return next, pruned
}
