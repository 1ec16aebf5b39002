package stream

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"fairtask/internal/assign"
	"fairtask/internal/audit"
	"fairtask/internal/evo"
	"fairtask/internal/fault"
	"fairtask/internal/game"
	"fairtask/internal/model"
	"fairtask/internal/obs"
	"fairtask/internal/payoff"
	"fairtask/internal/platform"
	"fairtask/internal/vdps"
)

// Algorithm names the dynamics an Engine replays per applied batch.
type Algorithm string

// The supported equilibrium dynamics.
const (
	// FGT replays best-response dynamics (Algorithm 2) per batch.
	FGT Algorithm = "FGT"
	// IEGT replays evolutionary dynamics (Algorithm 3) per batch.
	IEGT Algorithm = "IEGT"
)

// ErrUnknownAlgorithm rejects an Options.Algorithm other than FGT or IEGT.
var ErrUnknownAlgorithm = errors.New("stream: unknown algorithm")

// Resolve paths, recorded in Result.Resolve and counted by
// fta_stream_resolves_total.
const (
	// ResolveNoop: nothing the game reads changed; the standing
	// equilibrium was kept without re-running dynamics.
	ResolveNoop = "noop"
	// ResolveWarm: strategy spaces were incrementally repaired and the
	// dynamics replayed over them.
	ResolveWarm = "warm"
	// ResolveRegen: a point's earliest expiry (or the effective candidate
	// size cap) changed, forcing a candidate-DP re-run before the replay.
	ResolveRegen = "regen"
	// ResolveCold: a failpoint or error broke the warm path and the batch
	// was served by an audited cold solve through the platform ladder.
	ResolveCold = "cold"
)

// Options configure a streaming Engine.
type Options struct {
	// Algorithm selects the dynamics replayed per applied batch: FGT (the
	// default) or IEGT.
	Algorithm Algorithm
	// VDPS configures candidate generation, for the initial build and for
	// every regeneration.
	VDPS vdps.Options
	// Game configures the FGT dynamics. The same options — in particular
	// the Seed — are replayed on every resolve, which is what pins the
	// warm equilibrium bit-exactly to game.ReferenceFGT on the engine's
	// current instance.
	Game game.Options
	// Evo configures the IEGT dynamics when Algorithm is IEGT, with the
	// same replay semantics against evo.ReferenceIEGT.
	Evo evo.Options
	// Degrade optionally arms the exact→sampled→greedy platform ladder for
	// cold fallbacks. Nil keeps fallbacks exact-only: a fallback that
	// cannot solve exactly fails the Apply (without consuming its
	// sequence numbers).
	Degrade *platform.Degrade
	// Retry retries cold-fallback solve attempts under this policy. Nil
	// disables retrying.
	Retry *fault.RetryPolicy
	// Metrics receives the fta_stream_* instruments. Nil disables.
	Metrics *obs.StreamMetrics
	// Recorder receives solve telemetry from cold fallbacks. Nil disables.
	Recorder obs.Recorder
}

// Result reports what one applied batch did to the engine.
type Result struct {
	// Seq is the last sequence number applied (the batch's highest).
	Seq uint64
	// Applied is the number of deltas in the batch.
	Applied int
	// Resolve is the path that re-established equilibrium: ResolveNoop,
	// ResolveWarm, ResolveRegen or ResolveCold.
	Resolve string
	// WorkersTouched counts workers whose strategy spaces were rebuilt,
	// spliced, repaired in place or dropped — the repair blast radius — per
	// worker ID: a worker that goes offline and comes back in the same batch
	// counts once, and only if its list had to change. The incremental
	// paths count rebuilt, spliced, repaired and departed workers; a full
	// regen or cold fallback counts the whole staged roster plus departures.
	WorkersTouched int
	// Summary holds the committed equilibrium's payoff metrics.
	Summary payoff.Summary
	// Iterations and Converged report the committed dynamics run.
	Iterations int
	Converged  bool
	// Degraded names the ladder rung that served a cold fallback
	// ("sampled", "greedy"); empty for full-fidelity results.
	Degraded string
	// Audit holds the independent invariant report of a cold fallback; nil
	// on the bit-pinned paths (those results are pinned by the differential
	// tests instead).
	Audit *audit.Report
	// Elapsed is the wall-clock time of the whole Apply.
	Elapsed time.Duration
}

// Snapshot is a self-consistent copy of the engine's committed state.
type Snapshot struct {
	// Seq is the last applied sequence number; Applied counts applied
	// deltas over the engine's lifetime.
	Seq     uint64
	Applied uint64
	// Algorithm is the engine's configured dynamics.
	Algorithm Algorithm
	// Instance is a deep copy of the current instance.
	Instance *model.Instance
	// Assignment is a copy of the current equilibrium assignment.
	Assignment *model.Assignment
	// Summary holds the equilibrium payoff metrics.
	Summary payoff.Summary
	// Iterations, Converged and Potential report the committed dynamics
	// run, and Degraded its ladder rung if it was a degraded cold
	// fallback.
	Iterations int
	Converged  bool
	Potential  float64
	Degraded   string
}

// Engine holds a live equilibrium over a mutating FTA instance. It keeps
// the solver's warm structures — the VDPS candidate generator and one
// strategy list per worker — and, per applied batch, repairs only what
// the deltas invalidated before replaying the seeded dynamics, instead of
// cold-solving O(W) strategy spaces per event. A strategy list belongs to
// the worker, not to its ID: it is reused across a batch only while the
// worker keeps its ID and everything its list is derived from (location,
// MaxDP, speed), so a courier that rejoins elsewhere gets a fresh list.
//
// Apply is transactional: deltas are staged on a clone and committed only
// after a successful resolve, so a failed Apply leaves the previous
// equilibrium standing and consumes no sequence numbers. An Engine is not
// safe for concurrent use; callers (the HTTP server) serialize access.
type Engine struct {
	opt  Options
	inst *model.Instance
	// solver plays every resolve — warm, regen and cold — with the
	// configured dynamics. FGT and IEGT never reorder a strategy list, so
	// lists keeps the ascending candidate order SpliceStrategies needs.
	solver dynamicsAssigner
	// gen and lists are the warm structures, bit-identical to what a cold
	// build over inst would produce: lists[w] is the strategy space of
	// inst.Workers[w], exactly the committed game.State.Strategies.
	gen   *vdps.Generator
	lists [][]vdps.StrategyRef
	// maxSize is the effective candidate size cap gen was generated with;
	// a roster delta that moves it forces a regeneration.
	maxSize int
	res     *game.Result
	lastSeq uint64
	applied uint64
	// dirty marks the warm structures as diverged from inst (a failure
	// after in-place repair of the generator or the lists): the next batch
	// regenerates them before doing anything else.
	dirty bool
}

// New cold-solves the instance and returns an engine warmed with the
// solve's structures. The candidate generation validates the instance. An
// instance without workers is valid and yields an empty equilibrium.
func New(ctx context.Context, in *model.Instance, opt Options) (*Engine, error) {
	switch opt.Algorithm {
	case "":
		opt.Algorithm = FGT
	case FGT, IEGT:
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownAlgorithm, opt.Algorithm)
	}
	e := &Engine{opt: opt, inst: in.Clone(), solver: dynamicsAssigner{opt.Game}}
	if opt.Algorithm == IEGT {
		e.solver = dynamicsAssigner{opt.Evo}
	}
	gen, err := vdps.GenerateContext(ctx, e.inst, opt.VDPS)
	if err != nil {
		return nil, err
	}
	state := game.NewState(gen)
	res, err := e.solver.Assign(ctx, state)
	if err != nil {
		return nil, err
	}
	e.gen = gen
	e.lists = state.Strategies
	e.res = res
	e.maxSize = vdps.EffectiveMaxSize(e.inst, opt.VDPS)
	if m := opt.Metrics; m != nil {
		m.Seq.Set(float64(e.lastSeq))
	}
	return e, nil
}

// Apply applies one delta; see ApplyAll.
func (e *Engine) Apply(ctx context.Context, d Delta) (Result, error) {
	return e.ApplyAll(ctx, []Delta{d})
}

// ApplyAll stages the batch on a clone of the current instance, repairs the
// warm structures, replays the dynamics and commits — or rejects the whole
// batch with the engine untouched. Sequence numbers must be strictly
// increasing within the batch and across calls; rejected batches consume
// none. An empty batch is a no-op returning the standing equilibrium.
func (e *Engine) ApplyAll(ctx context.Context, ds []Delta) (Result, error) {
	start := time.Now()
	ctx, sp := obs.StartSpan(ctx, "stream.apply")
	defer sp.End()
	sp.SetAttrInt("deltas", len(ds))

	reject := func(err error) (Result, error) {
		if m := e.opt.Metrics; m != nil {
			m.Rejected.Inc()
		}
		return Result{}, err
	}

	last := e.lastSeq
	for i := range ds {
		if ds[i].Seq <= last {
			return reject(fmt.Errorf("%w: event %d after %d", ErrStaleSeq, ds[i].Seq, last))
		}
		last = ds[i].Seq
	}
	if err := fpApply.Hit(ctx); err != nil {
		return reject(fmt.Errorf("stream: apply: %w", err))
	}
	if len(ds) == 0 {
		res := e.result(Result{Seq: e.lastSeq, Resolve: ResolveNoop}, start)
		e.observe(res, nil, 0)
		return res, nil
	}

	staged := e.inst.Clone()
	var plan repairPlan
	for i := range ds {
		if err := applyDelta(staged, ds[i], &plan); err != nil {
			return reject(err)
		}
	}

	rsp := sp.Child("stream.repair")
	rewardPoints, expiryPoints := plan.diff(staged)
	full := e.dirty
	if !full && plan.workersChanged && vdps.EffectiveMaxSize(staged, e.opt.VDPS) != e.maxSize {
		full = true
	}

	res := Result{Seq: last, Applied: len(ds)}
	var (
		gen     *vdps.Generator
		state   *game.State
		mutated bool
	)
	if full {
		// Roster-shape change moved the candidate size cap (or a previous
		// failure left the warm structures dirty): only a full candidate-DP
		// re-run covers every set size a worker could now ask for.
		res.Resolve = ResolveRegen
		res.WorkersTouched = len(staged.Workers) + e.departures(staged)
		var err error
		gen, err = vdps.GenerateContext(ctx, staged, e.opt.VDPS)
		if err != nil {
			rsp.End()
			return e.recover(ctx, sp, staged, ds, res, start, err, mutated)
		}
		state = game.NewState(gen)
	} else {
		// Incremental repair: rebind the generator to the staged instance.
		// If a point's earliest expiry moved, re-run the candidate DP
		// restricted to the sets containing it (RepairExpiries tombstones
		// the sets it replaces and appends the result, so the live table is
		// bit-identical to a full re-run's); then patch candidate rewards in
		// the cold accumulation order, and let refresh carry each worker's
		// list over, splice it or rebuild it.
		res.Resolve = ResolveWarm
		gen = e.gen
		gen.Rebind(staged)
		var rep vdps.ExpiryRepair
		if len(expiryPoints) > 0 {
			res.Resolve = ResolveRegen
			if err := fpRepair.Hit(ctx); err != nil {
				rsp.End()
				return e.recover(ctx, sp, staged, ds, res, start, fmt.Errorf("stream: repair: %w", err), mutated)
			}
			var err error
			if rep, err = gen.RepairExpiries(ctx, expiryPoints); err != nil {
				rsp.End()
				return e.recover(ctx, sp, staged, ds, res, start, err, mutated)
			}
			// The table was edited in place, and refresh splices the
			// committed lists in place.
			mutated = true
		}
		repriced := gen.RepairRewards(rewardPoints)
		if len(repriced) > 0 {
			mutated = true
		}
		if !mutated && !plan.workersChanged {
			// Nothing the game reads changed (e.g. a zero-reward arrival
			// above the point's earliest expiry): commit the instance and
			// keep the standing equilibrium.
			rsp.End()
			res.Resolve = ResolveNoop
			e.commit(staged, gen, e.lists, e.res, last, len(ds))
			res = e.result(res, start)
			e.observe(res, ds, 0)
			return res, nil
		}
		var lists [][]vdps.StrategyRef
		lists, res.WorkersTouched = e.refresh(gen, staged, rep, repriced)
		state = game.NewStateWithStrategies(gen, lists)
	}
	rsp.End()

	vstart := time.Now()
	vsp := sp.Child("stream.resolve")
	if err := fpResolve.Hit(ctx); err != nil {
		vsp.End()
		return e.recover(ctx, sp, staged, ds, res, start, err, mutated)
	}
	solved, err := e.solver.Assign(ctx, state)
	vsp.End()
	if err != nil {
		if ctx.Err() != nil {
			if mutated {
				e.dirty = true
			}
			return Result{}, err
		}
		return e.recover(ctx, sp, staged, ds, res, start, err, mutated)
	}
	e.commit(staged, gen, state.Strategies, solved, last, len(ds))
	res = e.result(res, start)
	e.observe(res, ds, time.Since(vstart))
	return res, nil
}

// Snapshot returns a self-consistent copy of the committed state. It never
// re-solves: the returned equilibrium is exactly what the last successful
// Apply (or New) committed.
func (e *Engine) Snapshot() Snapshot {
	sum := e.res.Summary
	sum.Payoffs = slices.Clone(sum.Payoffs)
	return Snapshot{
		Seq:        e.lastSeq,
		Applied:    e.applied,
		Algorithm:  e.opt.Algorithm,
		Instance:   e.inst.Clone(),
		Assignment: e.res.Assignment.Clone(),
		Summary:    sum,
		Iterations: e.res.Iterations,
		Converged:  e.res.Converged,
		Potential:  e.res.Potential,
		Degraded:   e.res.Degraded,
	}
}

// recover serves the batch through an audited cold solve on the platform
// ladder after cause broke the warm path, and keeps warm structures for
// subsequent batches: the exact rung's own generator and lists, or after a
// degraded rung, which played sampled candidates, a rebuild. The committed
// result does not depend on those structures — every resolve replays the
// dynamics from scratch — so a failed rebuild only marks the engine dirty
// (forcing regeneration next batch) instead of failing the Apply.
func (e *Engine) recover(ctx context.Context, sp *obs.Span, staged *model.Instance, ds []Delta, res Result, start time.Time, cause error, mutated bool) (Result, error) {
	vstart := time.Now()
	csp := sp.Child("stream.cold")
	csp.SetAttr("cause", cause.Error())
	defer csp.End()
	solver := &playedAssigner{dynamicsAssigner: e.solver}
	solved, report, err := platform.SolveInstance(ctx, staged, solver, platform.Options{
		VDPS:     e.opt.VDPS,
		Recorder: e.opt.Recorder,
		Audit:    &audit.Options{},
		Retry:    e.opt.Retry,
		Degrade:  e.opt.Degrade,
	})
	if err != nil {
		if mutated {
			e.dirty = true
		}
		if m := e.opt.Metrics; m != nil {
			m.Rejected.Inc()
		}
		return Result{}, fmt.Errorf("stream: cold fallback (after %v): %w", cause, err)
	}
	res.Resolve = ResolveCold
	res.WorkersTouched = len(staged.Workers) + e.departures(staged)
	res.Audit = report
	if solved.Degraded == "" {
		// The exact rung built the generator and the lists for this
		// instance with the engine's VDPS options, and its audit only read
		// them.
		e.commit(staged, solver.state.Generator(), solver.state.Strategies, solved, res.Seq, len(ds))
	} else if gen, err := vdps.GenerateContext(ctx, staged, e.opt.VDPS); err == nil {
		e.commit(staged, gen, game.NewState(gen).Strategies, solved, res.Seq, len(ds))
	} else {
		e.inst = staged
		e.res = solved
		e.lastSeq = res.Seq
		e.applied += uint64(len(ds))
		e.dirty = true
	}
	res = e.result(res, start)
	e.observe(res, ds, time.Since(vstart))
	return res, nil
}

// refresh returns the staged roster's strategy lists for the incremental
// path, together with the number of workers whose lists were rebuilt,
// spliced, repaired in place or dropped. gen is already repaired: rep is
// its expiry repair (the zero value when no expiry moved), and repriced
// lists the post-repair candidates whose reward changed.
//
// A staged worker inherits the committed list of the worker with its ID
// only while the worker's location, MaxDP and speed (all the list reads
// about it) are unchanged. The list is then carried through the expiry
// repair by gen.SpliceStrategies, which consumes it: the entries of dropped
// candidates are squeezed out and the regenerated ones the worker can take
// appended, in the committed list's own array while it has room (and
// renumbered in place if the repair compacted the table). The payoffs of
// its re-priced entries are then recomputed in place. The committed lists
// are therefore stale once refresh has run on a repair that is not the
// identity; such a repair always sets mutated in ApplyAll, so a batch that
// fails afterwards marks the engine dirty. The worker counts as touched iff
// its list was spliced or held a re-priced entry. Every other worker's list
// is rebuilt.
func (e *Engine) refresh(gen *vdps.Generator, staged *model.Instance, rep vdps.ExpiryRepair, repriced []int) ([][]vdps.StrategyRef, int) {
	committed := make(map[int]int, len(e.inst.Workers))
	for w := range e.inst.Workers {
		committed[e.inst.Workers[w].ID] = w
	}
	var hit []bool
	if len(repriced) > 0 {
		hit = make([]bool, len(gen.Candidates()))
		for _, ci := range repriced {
			hit[ci] = true
		}
	}
	lists := make([][]vdps.StrategyRef, len(staged.Workers))
	touched, present := 0, 0
	var sc vdps.StrategyScratch
	for w := range staged.Workers {
		sw := &staged.Workers[w]
		cw, reuse := committed[sw.ID]
		if reuse {
			present++
			old := &e.inst.Workers[cw]
			reuse = old.Loc == sw.Loc && old.MaxDP == sw.MaxDP && old.Speed == sw.Speed
		}
		if !reuse {
			lists[w] = gen.WorkerStrategies(w, &sc)
			touched++
			continue
		}
		list, spliced := gen.SpliceStrategies(w, e.lists[cw], rep, &sc)
		repaired := hit != nil && gen.RepairStrategyPayoffs(w, list, hit)
		if spliced || repaired {
			touched++
		}
		lists[w] = list
	}
	return lists, touched + len(e.inst.Workers) - present
}

// departures counts committed workers whose IDs are absent from the staged
// roster.
func (e *Engine) departures(staged *model.Instance) int {
	ids := make(map[int]bool, len(staged.Workers))
	for w := range staged.Workers {
		ids[staged.Workers[w].ID] = true
	}
	n := 0
	for w := range e.inst.Workers {
		if !ids[e.inst.Workers[w].ID] {
			n++
		}
	}
	return n
}

// commit installs the staged instance and its consistent warm structures.
func (e *Engine) commit(staged *model.Instance, gen *vdps.Generator, lists [][]vdps.StrategyRef, res *game.Result, seq uint64, n int) {
	e.inst = staged
	e.gen = gen
	e.lists = lists
	e.res = res
	e.maxSize = vdps.EffectiveMaxSize(staged, e.opt.VDPS)
	e.lastSeq = seq
	e.applied += uint64(n)
	e.dirty = false
}

// result fills the committed-state fields of a Result.
func (e *Engine) result(r Result, start time.Time) Result {
	sum := e.res.Summary
	sum.Payoffs = slices.Clone(sum.Payoffs)
	r.Summary = sum
	r.Iterations = e.res.Iterations
	r.Converged = e.res.Converged
	r.Degraded = e.res.Degraded
	r.Elapsed = time.Since(start)
	return r
}

// observe records the applied batch's metrics.
func (e *Engine) observe(r Result, ds []Delta, resolve time.Duration) {
	m := e.opt.Metrics
	if m == nil {
		return
	}
	for i := range ds {
		if c := m.DeltaCounter(string(ds[i].Kind)); c != nil {
			c.Inc()
		}
	}
	if c := m.ResolveCounter(r.Resolve); c != nil {
		c.Inc()
	}
	m.ApplySeconds.Observe(r.Elapsed.Seconds())
	if r.Resolve != ResolveNoop {
		m.ResolveSeconds.Observe(resolve.Seconds())
	}
	m.WorkersTouched.Observe(float64(r.WorkersTouched))
	m.Seq.Set(float64(e.lastSeq))
}

// dynamicsAssigner is the engine's configured dynamics (its game.Options or
// evo.Options) with the empty equilibrium for a roster without workers, so
// an engine can drain to zero workers and refill. The engine plays it on
// every path: on its warm structures, and as the platform ladder's solver
// for cold fallbacks, whose audit certifies with the dynamics' own Verify.
// The dynamics depend only on the lists' contents, so an exact-rung
// fallback changes availability, not results.
type dynamicsAssigner struct{ assign.Certified }

// Assign plays s with the engine's dynamics.
func (a dynamicsAssigner) Assign(ctx context.Context, s *game.State) (*game.Result, error) {
	if len(s.Current) == 0 {
		return emptyResult(s.Instance()), nil
	}
	return a.Certified.Assign(ctx, s)
}

// playedAssigner is the engine's dynamics as a cold fallback's solver. It
// keeps the state it was last handed: after an exact-rung fallback, the
// state the served result was played on, whose generator and lists the
// engine commits instead of building them a second time. It embeds
// dynamicsAssigner, so the rung's audit still certifies with the
// dynamics' own Verify.
type playedAssigner struct {
	dynamicsAssigner
	state *game.State
}

// Assign records s and plays it with the engine's dynamics.
func (a *playedAssigner) Assign(ctx context.Context, s *game.State) (*game.Result, error) {
	a.state = s
	return a.dynamicsAssigner.Assign(ctx, s)
}

// emptyResult is the equilibrium of a workerless instance.
func emptyResult(in *model.Instance) *game.Result {
	a := model.NewAssignment(0)
	return &game.Result{Assignment: a, Summary: payoff.Summarize(in, a), Converged: true}
}
