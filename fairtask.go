// Package fairtask is a Go implementation of fairness-aware task assignment
// in spatial crowdsourcing, reproducing "Fairness-aware Task Assignment in
// Spatial Crowdsourcing: Game-Theoretic Approaches" (Zhao et al., ICDE 2021).
//
// The library models a delivery-logistics SC platform: a distribution center
// holds delivery points, each with expiring tasks; workers must first travel
// to the center and then visit a set of delivery points before the tasks
// expire. The Fairness-aware Task Assignment (FTA) problem asks for
// pairwise-disjoint Valid Delivery Point Sets (VDPSs), one per worker, that
// minimize the payoff difference between workers while keeping the average
// payoff high.
//
// Four algorithms are provided behind one interface:
//
//   - FGT  — the paper's Fairness-aware Game-Theoretic approach: best-response
//     dynamics under an inequity-aversion utility, reaching a pure Nash
//     equilibrium.
//   - IEGT — the paper's Improved Evolutionary Game-Theoretic approach:
//     replicator dynamics driving below-average workers to better strategies
//     until an evolutionary equilibrium.
//   - GTA  — greedy maximal-payoff baseline (no fairness).
//   - MPTA — maximal total payoff baseline (no fairness).
//
// # Quick start
//
//	inst, err := fairtask.GenerateGM(fairtask.GMConfig{Seed: 1})
//	if err != nil { ... }
//	res, err := fairtask.Solve(inst, fairtask.Options{Algorithm: fairtask.AlgIEGT})
//	if err != nil { ... }
//	fmt.Println(res.Summary.Difference, res.Summary.Average)
//
// Multi-center problems (fairtask.Problem) are solved per center in
// parallel with SolveProblem, and Simulate runs an epoch-based platform
// simulation with worker lifecycles and task expiry.
package fairtask

import (
	"context"
	"fmt"
	"io"

	"fairtask/internal/assign"
	"fairtask/internal/audit"
	"fairtask/internal/dataset"
	"fairtask/internal/evo"
	"fairtask/internal/fairness"
	"fairtask/internal/fault"
	"fairtask/internal/game"
	"fairtask/internal/geo"
	"fairtask/internal/model"
	"fairtask/internal/obs"
	"fairtask/internal/online"
	"fairtask/internal/payoff"
	"fairtask/internal/platform"
	"fairtask/internal/render"
	"fairtask/internal/stream"
	"fairtask/internal/travel"
	"fairtask/internal/vdps"
)

// Domain types re-exported from the internal packages. These are aliases, so
// values flow freely between the public API and advanced internal use.
type (
	// Point is a 2D location in kilometres.
	Point = geo.Point
	// Task is a spatial delivery task (Definition 3).
	Task = model.Task
	// DeliveryPoint is a location with a set of tasks (Definition 2).
	DeliveryPoint = model.DeliveryPoint
	// Worker is a crowd worker (Definition 4).
	Worker = model.Worker
	// Instance is a single-distribution-center FTA problem.
	Instance = model.Instance
	// Problem is a multi-center FTA problem.
	Problem = model.Problem
	// Route is an ordered delivery point visiting sequence (Definition 5).
	Route = model.Route
	// Assignment maps workers to routes (Definition 8).
	Assignment = model.Assignment
	// Summary aggregates payoff metrics of an assignment.
	Summary = payoff.Summary
	// Result is the outcome of a solve: assignment, metrics, convergence.
	Result = game.Result
	// IterationStat is one round of a game-theoretic run (for convergence
	// studies, paper Figure 12).
	IterationStat = game.IterationStat
	// FairnessParams are the inequity-aversion weights alpha and beta.
	FairnessParams = fairness.Params
	// VDPSOptions configure Valid Delivery Point Set generation, including
	// the distance-constrained pruning threshold Epsilon.
	VDPSOptions = vdps.Options
	// SampleVDPSOptions configure the randomized candidate sampler used by
	// SolveSampled for large or unlimited maxDP instances.
	SampleVDPSOptions = vdps.SampleOptions
	// SYNConfig parameterizes the synthetic dataset generator (Table I).
	SYNConfig = dataset.SYNConfig
	// GMConfig parameterizes the gMission-style dataset generator.
	GMConfig = dataset.GMConfig
	// ArrivalConfig parameterizes the Poisson task-arrival process for
	// platform simulations.
	ArrivalConfig = dataset.ArrivalConfig
	// SimConfig parameterizes the epoch-based platform simulation.
	SimConfig = platform.SimConfig
	// SimReport is the outcome of a platform simulation.
	SimReport = platform.SimReport
	// EpochStats is one simulated round.
	EpochStats = platform.EpochStats
	// ProblemResult aggregates a multi-center solve.
	ProblemResult = platform.Result
	// Assigner is the common algorithm interface.
	Assigner = assign.Assigner
	// OnlineMatcher assigns tasks one at a time as they arrive (the
	// single-task assignment mode of paper §III).
	OnlineMatcher = online.Matcher
	// OnlineTask is one arriving task for the online matcher.
	OnlineTask = online.Task
	// OnlinePolicy selects the online matching rule.
	OnlinePolicy = online.Policy
	// OnlineReport summarizes an online matching run.
	OnlineReport = online.Report
	// TravelModel converts distances to travel times.
	TravelModel = travel.Model
	// Metric is a distance metric over points.
	Metric = geo.Metric
	// Euclidean is the straight-line metric used by the paper.
	Euclidean = geo.Euclidean
	// Manhattan is the L1 metric alternative.
	Manhattan = geo.Manhattan
	// Recorder receives telemetry events from the platform's solve path:
	// one per successful candidate generation, per solved center and per
	// multi-center assignment. Implementations must be concurrency-safe;
	// nil disables telemetry at no cost.
	Recorder = obs.Recorder
	// MetricsRegistry is a concurrency-safe registry of counters, gauges
	// and histograms with Prometheus text-format exposition.
	MetricsRegistry = obs.Registry
	// MetricsRecorder is a Recorder aggregating events into a
	// MetricsRegistry as Prometheus-style metrics.
	MetricsRecorder = obs.MetricsRecorder
	// VDPSEvent summarizes one candidate-generation run.
	VDPSEvent = obs.VDPSEvent
	// SolveEvent summarizes one completed single-center solve.
	SolveEvent = obs.SolveEvent
	// AssignEvent summarizes one completed multi-center assignment.
	AssignEvent = obs.AssignEvent
	// AuditReport is the outcome of an independent assignment audit: the
	// checks executed, the invariants violated, and the payoff summary the
	// auditor recomputed from scratch.
	AuditReport = audit.Report
	// AuditViolation is one broken invariant found by the auditor.
	AuditViolation = audit.Violation
	// AuditCheck identifies one audited invariant family.
	AuditCheck = audit.Check
	// AuditOptions configure an assignment audit.
	AuditOptions = audit.Options
	// AuditError is the error form of a failed audit; it carries the full
	// report and is returned (wrapped) by Solve* when Options.Audit is set
	// and a violation is found. Extract it with errors.As.
	AuditError = audit.Error
	// DegradeOptions configure the exact→sampled→greedy degradation ladder
	// for Options.Degrade: per-rung wall-clock budgets and the sampled
	// rungs' candidate generation.
	DegradeOptions = platform.Degrade
	// RetryPolicy configures Options.Retry: capped exponential backoff with
	// deterministic seeded jitter around each per-center solve attempt.
	RetryPolicy = fault.RetryPolicy
	// RetryError wraps the final error of an exhausted retry loop with the
	// number of attempts made. Extract it with errors.As.
	RetryError = fault.RetryError
	// Tracer records the hierarchical phase spans of one traced operation;
	// collect the finished tree with Tracer.Collect and export it with
	// WriteChromeTrace. See docs/OBSERVABILITY.md.
	Tracer = obs.Tracer
	// SpanTrace is one collected tree of spans (named to avoid clashing
	// with Options.Trace, the per-iteration convergence trace).
	SpanTrace = obs.Trace
	// Span is one timed phase of a traced operation. A nil *Span is a
	// no-op, so instrumented call sites cost a single pointer check when
	// tracing is disabled.
	Span = obs.Span
	// SpanRecord is the immutable record of one finished span.
	SpanRecord = obs.SpanRecord
	// StreamEngine maintains a standing equilibrium over a single-center
	// instance under a stream of deltas, repairing its candidate and
	// strategy structures incrementally instead of re-solving from scratch.
	// Build with NewStreamEngine; see docs/STREAMING.md.
	StreamEngine = stream.Engine
	// StreamOptions configure a StreamEngine: the dynamics replayed per
	// batch, the cold-fallback ladder and telemetry.
	StreamOptions = stream.Options
	// StreamDelta is one stream event (task arrival/expiry, worker
	// churn, reprice) with a strictly increasing sequence number.
	StreamDelta = stream.Delta
	// StreamDeltaKind discriminates StreamDelta mutations.
	StreamDeltaKind = stream.Kind
	// StreamResult reports what one applied batch did to the engine:
	// resolve path, repair blast radius, committed metrics and — for cold
	// fallbacks — the audit certificate.
	StreamResult = stream.Result
	// StreamSnapshot is a self-consistent copy of an engine's committed
	// state.
	StreamSnapshot = stream.Snapshot
	// StreamGenConfig parameterizes GenerateStreamDeltas, the seeded
	// Poisson delta-stream generator for benchmarks and experiments.
	StreamGenConfig = stream.StreamConfig
	// StreamMetrics bundles the fta_stream_* instrument families; build
	// with NewStreamMetrics and pass via StreamOptions.Metrics.
	StreamMetrics = obs.StreamMetrics
)

// Degradation-ladder rung names recorded in Result.Degraded and
// ProblemResult.Degraded; the exact rung is the empty string.
const (
	// RungSampled marks a result solved over sampled candidates after the
	// exact rung failed or exceeded its budget.
	RungSampled = platform.RungSampled
	// RungGreedy marks a last-resort greedy assignment over sampled
	// candidates.
	RungGreedy = platform.RungGreedy
)

// ErrFaultInjected is the sentinel wrapped by every failure a chaos-run
// failpoint injects; classify solve errors from chaos runs with
// errors.Is(err, ErrFaultInjected). See docs/RESILIENCE.md.
var ErrFaultInjected = fault.ErrInjected

// ErrNonMonotoneIAU rejects IAU weights under which a worker's utility can
// fall as its own payoff rises: FGT, the stream engine and the Nash
// certificate accept alpha >= -m and beta <= m, where m is the least
// effective worker priority with UsePriorities set and 1 otherwise. The
// default alpha = beta = 0.5 is accepted; classify with errors.Is.
var ErrNonMonotoneIAU = game.ErrNonMonotoneIAU

// NoEpsilon selects the strict best response in Options.EpsilonUtility: a
// worker switches on any utility gain, however small. The zero value keeps
// the numerical default threshold, so "exactly zero" needs this sentinel.
const NoEpsilon = game.NoEpsilon

// Stream delta kinds — the wire grammar of the event-ingest API and the
// values of StreamDelta.Kind.
const (
	// StreamTaskArrived adds a task to an existing delivery point.
	StreamTaskArrived = stream.TaskArrived
	// StreamTaskExpired removes a task.
	StreamTaskExpired = stream.TaskExpired
	// StreamWorkerOnline adds a worker to the roster.
	StreamWorkerOnline = stream.WorkerOnline
	// StreamWorkerOffline removes a worker from the roster.
	StreamWorkerOffline = stream.WorkerOffline
	// StreamRewardChanged re-prices an existing task.
	StreamRewardChanged = stream.RewardChanged
)

// Resolve paths recorded in StreamResult.Resolve: how the engine
// re-established equilibrium after a batch.
const (
	// StreamResolveNoop kept the standing equilibrium untouched.
	StreamResolveNoop = stream.ResolveNoop
	// StreamResolveWarm repaired strategy spaces in place and replayed
	// the dynamics.
	StreamResolveWarm = stream.ResolveWarm
	// StreamResolveRegen re-ran (incrementally where possible) the
	// candidate DP before the replay.
	StreamResolveRegen = stream.ResolveRegen
	// StreamResolveCold served the batch by an audited cold solve.
	StreamResolveCold = stream.ResolveCold
)

// ErrStreamStaleSeq rejects a delta whose sequence number is not strictly
// greater than the last applied one; classify StreamEngine.Apply errors
// with errors.Is.
var ErrStreamStaleSeq = stream.ErrStaleSeq

// NewStreamEngine cold-solves the instance once and returns the streaming
// engine that keeps its equilibrium standing under deltas. The instance is
// copied; later mutations of in do not affect the engine.
func NewStreamEngine(ctx context.Context, in *Instance, opt StreamOptions) (*StreamEngine, error) {
	return stream.New(ctx, in, opt)
}

// GenerateStreamDeltas builds a seeded random delta stream (Poisson
// arrivals, expiries, worker churn, reprices) against the instance, for
// benchmarks and experiments.
func GenerateStreamDeltas(in *Instance, cfg StreamGenConfig) ([]StreamDelta, error) {
	return stream.GenerateStream(in, cfg)
}

// ReplayStreamDeltas applies the deltas to the instance in order, mutating
// it in place — the defining semantics of the delta grammar, usable to
// reconstruct the instance a StreamEngine is standing on.
func ReplayStreamDeltas(in *Instance, ds ...StreamDelta) error {
	return stream.Replay(in, ds...)
}

// NewStreamMetrics registers the fta_stream_* instrument families on the
// registry for a StreamEngine's telemetry.
func NewStreamMetrics(reg *MetricsRegistry) *StreamMetrics {
	return obs.NewStreamMetrics(reg)
}

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewMetricsRecorder builds a MetricsRecorder over the registry,
// pre-registering the engine's fixed-name instruments.
func NewMetricsRecorder(reg *MetricsRegistry) *MetricsRecorder {
	return obs.NewMetricsRecorder(reg)
}

// NewTracer starts recording a new span trace. Derive the root span with
// Tracer.Root and hand it to the Solve*Context entry points via
// ContextWithSpan; solver phases (vdps.generate, state.build, round, audit,
// retry attempts, degradation rungs) nest under it automatically.
func NewTracer() *Tracer { return obs.NewTracer() }

// ContextWithSpan returns a context carrying sp as the active parent span.
// Pass it to SolveContext or SolveProblemContext to capture per-phase
// timings for that call.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return obs.ContextWithSpan(ctx, sp)
}

// WriteChromeTrace exports collected traces as Chrome trace_event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing and readable
// back with the fta trace subcommand.
func WriteChromeTrace(w io.Writer, traces ...SpanTrace) error {
	return obs.WriteChromeTrace(w, traces...)
}

// Online matching policies.
const (
	// OnlineGreedy assigns each arriving task to the worker that completes
	// it soonest.
	OnlineGreedy = online.Greedy
	// OnlineFairFirst assigns each arriving task to the feasible worker
	// with the lowest cumulative earnings rate.
	OnlineFairFirst = online.FairFirst
)

// NewOnlineMatcher builds an online single-task matcher over the instance's
// workers and travel model.
func NewOnlineMatcher(in *Instance, policy OnlinePolicy) (*OnlineMatcher, error) {
	return online.NewMatcher(in, policy)
}

// Pt is shorthand for Point{X: x, Y: y}.
func Pt(x, y float64) Point { return geo.Pt(x, y) }

// NewTravelModel returns a travel model with the given metric (nil for
// Euclidean) and constant speed in km/h.
func NewTravelModel(m Metric, speed float64) (TravelModel, error) {
	return travel.NewModel(m, speed)
}

// DefaultFairness returns the paper's experimental IAU weights
// (alpha = beta = 0.5).
func DefaultFairness() FairnessParams { return fairness.DefaultParams() }

// Algorithm selects a task assignment method.
type Algorithm string

// The four algorithms evaluated in the paper.
const (
	// AlgGTA is the Greedy Task Assignment baseline.
	AlgGTA Algorithm = "GTA"
	// AlgMPTA is the Maximal Payoff based Task Assignment baseline.
	AlgMPTA Algorithm = "MPTA"
	// AlgFGT is the Fairness-aware Game-Theoretic approach.
	AlgFGT Algorithm = "FGT"
	// AlgIEGT is the Improved Evolutionary Game-Theoretic approach.
	AlgIEGT Algorithm = "IEGT"
	// AlgMMTA is the max-min fairness extension (not part of the paper's
	// evaluated set): it heuristically maximizes the minimum worker payoff.
	AlgMMTA Algorithm = "MMTA"
	// AlgLexifair is the exact lexicographic-minimax (leximin) extension:
	// it maximizes the smallest worker payoff, then the second smallest,
	// and so on — the egalitarian counterpart to the paper's
	// inequity-aversion game. See docs/ASSIGNERS.md.
	AlgLexifair Algorithm = "LEXIFAIR"
)

// Algorithms lists the paper's four evaluated methods in its presentation
// order. See ExtendedAlgorithms for the full set including extensions.
func Algorithms() []Algorithm {
	return []Algorithm{AlgMPTA, AlgGTA, AlgFGT, AlgIEGT}
}

// ExtendedAlgorithms lists every supported method, including the max-min
// and leximin fairness extensions.
func ExtendedAlgorithms() []Algorithm {
	return append(Algorithms(), AlgMMTA, AlgLexifair)
}

// Options configure Solve and SolveProblem.
type Options struct {
	// Algorithm picks the method; default AlgFGT.
	Algorithm Algorithm
	// VDPS configures candidate generation (Epsilon pruning, set size caps).
	VDPS VDPSOptions
	// Fairness holds the IAU weights for FGT; the zero value means
	// alpha = beta = 0.5. Weights outside the monotone domain fail with
	// ErrNonMonotoneIAU.
	Fairness FairnessParams
	// MaxIterations caps game rounds for FGT/IEGT (0 = method default).
	MaxIterations int
	// Seed drives randomized initialization for FGT/IEGT.
	Seed int64
	// Trace records per-iteration statistics for FGT/IEGT.
	Trace bool
	// UsePriorities enables the priority-aware IAU extension in FGT.
	UsePriorities bool
	// EpsilonUtility is FGT's early-termination threshold on utility gains
	// (0 = numerical default; NoEpsilon = strict best response).
	EpsilonUtility float64
	// RandomOrder shuffles FGT's best-response visiting order each round
	// (default: fixed round-robin, as in the paper).
	RandomOrder bool
	// MutationRate lets IEGT explore a random available strategy with this
	// probability per below-average worker per round (0 = paper behaviour).
	MutationRate float64
	// MPTATopK and MPTANodeBudget tune the MPTA search (0 = defaults).
	MPTATopK       int
	MPTANodeBudget int
	// LexifairNodeBudget caps the LEXIFAIR level search (0 = solver
	// default); exhausting it degrades to the best bottleneck vector found
	// and reports Converged = false.
	LexifairNodeBudget int
	// Parallelism bounds concurrent per-center solves in SolveProblem
	// (0 = GOMAXPROCS).
	Parallelism int
	// Recorder receives telemetry from each solve: candidate generation,
	// the per-center solve (with its strategy switches summed over all
	// rounds) and, for SolveProblem, the whole assignment. Nil (the
	// default) disables telemetry with no measurable overhead.
	Recorder Recorder
	// Audit re-verifies every produced assignment with the independent
	// auditor (route structure, deadline feasibility, payoff summary, VDPS
	// membership, the equilibrium certificate for converged FGT/IEGT, and
	// the leximin certificate for converged LEXIFAIR). A violation fails the solve with an error wrapping
	// *AuditError. The solver's own candidate generator is reused, so the
	// overhead is one verification pass, not a second generation.
	Audit bool
	// Retry retries each per-center solve attempt (candidate generation +
	// solver run) under this policy — capped exponential backoff with
	// deterministic seeded jitter. Nil (the default) or MaxAttempts < 2
	// disables retrying; context cancellation is never retried.
	Retry *RetryPolicy
	// Degrade enables the exact→sampled→greedy degradation ladder: when the
	// exact solve fails or exceeds its budget, the solver re-runs over
	// sampled candidates, and as a last resort a greedy assignment over
	// sampled candidates is produced. The serving rung lands in
	// Result.Degraded; degraded results are always audited for the
	// structural guarantees before being accepted. Nil (the default) means
	// exact-only. See docs/RESILIENCE.md.
	Degrade *DegradeOptions
}

// NewAssigner returns the Assigner implementing opt.Algorithm.
func NewAssigner(opt Options) (Assigner, error) {
	switch opt.Algorithm {
	case AlgGTA:
		return assign.GTA{}, nil
	case AlgMPTA:
		return assign.MPTA{TopK: opt.MPTATopK, NodeBudget: opt.MPTANodeBudget}, nil
	case AlgFGT, "":
		return fgtAssigner{opt: opt}, nil
	case AlgIEGT:
		return iegtAssigner{opt: opt}, nil
	case AlgMMTA:
		return assign.MMTA{}, nil
	case AlgLexifair:
		return assign.Lexifair{NodeBudget: opt.LexifairNodeBudget}, nil
	default:
		return nil, fmt.Errorf("fairtask: unknown algorithm %q", opt.Algorithm)
	}
}

// fgtAssigner adapts game.FGT to the Assigner interface.
type fgtAssigner struct{ opt Options }

// Name implements Assigner.
func (fgtAssigner) Name() string { return string(AlgFGT) }

// Assign implements Assigner.
func (a fgtAssigner) Assign(ctx context.Context, g *vdps.Generator) (*game.Result, error) {
	return game.FGT(ctx, g, game.Options{
		Fairness:       a.opt.Fairness,
		MaxIterations:  a.opt.MaxIterations,
		Seed:           a.opt.Seed,
		EpsilonUtility: a.opt.EpsilonUtility,
		UsePriorities:  a.opt.UsePriorities,
		Trace:          a.opt.Trace,
		RandomOrder:    a.opt.RandomOrder,
	})
}

// iegtAssigner adapts evo.IEGT to the Assigner interface.
type iegtAssigner struct{ opt Options }

// Name implements Assigner.
func (iegtAssigner) Name() string { return string(AlgIEGT) }

// Assign implements Assigner.
func (a iegtAssigner) Assign(ctx context.Context, g *vdps.Generator) (*game.Result, error) {
	return evo.IEGT(ctx, g, evo.Options{
		MaxIterations: a.opt.MaxIterations,
		Seed:          a.opt.Seed,
		Trace:         a.opt.Trace,
		MutationRate:  a.opt.MutationRate,
	})
}

// Solve runs the selected algorithm on a single-center instance: it
// generates the VDPS candidates and computes the assignment.
func Solve(in *Instance, opt Options) (*Result, error) {
	return SolveContext(context.Background(), in, opt)
}

// SolveContext is Solve with cancellation: candidate generation and the
// solver both observe ctx at their iteration boundaries, so a canceled
// context (client disconnect, job deadline) stops the solve early with
// ctx.Err() instead of running to MaxIterations.
func SolveContext(ctx context.Context, in *Instance, opt Options) (*Result, error) {
	return solveCenter(ctx, in, opt, platform.SolveInstance)
}

// solveCenter runs one single-center platform solve with the assigner and
// platform options derived from opt, failing the solve when Options.Audit
// found a violation.
func solveCenter(ctx context.Context, in *Instance, opt Options,
	solve func(context.Context, *Instance, Assigner, platform.Options) (*Result, *AuditReport, error)) (*Result, error) {
	solver, err := NewAssigner(opt)
	if err != nil {
		return nil, err
	}
	res, rep, err := solve(ctx, in, solver, platformOptions(opt))
	if err != nil {
		return nil, err
	}
	if opt.Audit && rep != nil && !rep.OK() {
		return nil, fmt.Errorf("fairtask: %s solve failed verification: %w", solver.Name(), rep.Err())
	}
	return res, nil
}

// platformOptions derives the platform-layer configuration from the public
// options.
func platformOptions(opt Options) platform.Options {
	popt := platform.Options{
		VDPS:        opt.VDPS,
		Parallelism: opt.Parallelism,
		Recorder:    opt.Recorder,
		Retry:       opt.Retry,
		Degrade:     opt.Degrade,
	}
	if opt.Audit {
		aopt := auditOptions(opt)
		popt.Audit = &aopt
	}
	return popt
}

// auditOptions derives the audit configuration matching a solve's options.
func auditOptions(opt Options) AuditOptions {
	return AuditOptions{
		VDPS:           opt.VDPS,
		Fairness:       opt.Fairness,
		EpsilonUtility: opt.EpsilonUtility,
		UsePriorities:  opt.UsePriorities,
	}
}

// Audit independently re-verifies an assignment against an instance: route
// structure, deadline feasibility, the reported payoff summary (nil sum
// skips the comparison), VDPS membership, and the equilibrium certificate
// for converged FGT/IEGT results (see AuditOptions). The report lists every
// violated invariant; Report.Err() converts it to an error.
func Audit(in *Instance, a *Assignment, sum *Summary, opt AuditOptions) *AuditReport {
	return audit.Run(in, a, sum, opt)
}

// SolveSampled is Solve with sampled candidate generation instead of the
// exact subset dynamic program: randomized greedy route growth makes large
// or unlimited-maxDP instances tractable at the cost of completeness (see
// the vdps package documentation). opt.VDPS and opt.Degrade are ignored:
// no degradation ladder runs, so Result.Degraded stays empty; opt.Retry,
// opt.Audit and opt.Recorder apply as in Solve.
func SolveSampled(in *Instance, sample SampleVDPSOptions, opt Options) (*Result, error) {
	return SolveSampledContext(context.Background(), in, sample, opt)
}

// SolveSampledContext is SolveSampled with cancellation, mirroring
// SolveContext.
func SolveSampledContext(ctx context.Context, in *Instance, sample SampleVDPSOptions, opt Options) (*Result, error) {
	return solveCenter(ctx, in, opt, func(ctx context.Context, in *Instance, solver Assigner, popt platform.Options) (*Result, *AuditReport, error) {
		return platform.SolveSampled(ctx, in, solver, sample, popt)
	})
}

// SolveProblem runs the selected algorithm over every center of a
// multi-center problem in parallel and aggregates the metrics over the full
// worker population.
func SolveProblem(p *Problem, opt Options) (*ProblemResult, error) {
	return SolveProblemContext(context.Background(), p, opt)
}

// SolveProblemContext is SolveProblem with cancellation: centers not yet
// started when ctx is done are skipped and the context error is returned.
func SolveProblemContext(ctx context.Context, p *Problem, opt Options) (*ProblemResult, error) {
	solver, err := NewAssigner(opt)
	if err != nil {
		return nil, err
	}
	res, err := platform.AssignContext(ctx, p, solver, platformOptions(opt))
	if err != nil {
		return nil, err
	}
	if opt.Audit {
		if aerr := res.AuditErr(p); aerr != nil {
			return nil, fmt.Errorf("fairtask: %s solve failed verification: %w", solver.Name(), aerr)
		}
	}
	return res, nil
}

// Simulate runs the epoch-based platform simulation (worker lifecycles,
// task expiry, optional task arrivals) over the problem.
func Simulate(p *Problem, cfg SimConfig) (*SimReport, error) {
	return platform.Simulate(p, cfg)
}

// VerifyNashEquilibrium checks that an assignment is a pure Nash
// equilibrium of the FTA game on the instance (Algorithm 2's termination
// certificate): it regenerates the VDPS candidates with opt.VDPS and
// confirms no worker has an available strategy with higher IAU — the
// priority-aware IAU when opt.UsePriorities is set. A nil return means the
// assignment is an equilibrium; a route outside its worker's strategy space
// fails to load, and weights outside the monotone IAU domain fail with
// ErrNonMonotoneIAU.
func VerifyNashEquilibrium(in *Instance, a *Assignment, opt Options) error {
	s, err := loadState(in, a, opt)
	if err != nil {
		return err
	}
	return game.VerifyNE(s, game.NEOptions{
		Fairness:      opt.Fairness,
		Tol:           opt.EpsilonUtility,
		UsePriorities: opt.UsePriorities,
	})
}

// VerifyEvolutionaryEquilibrium checks Algorithm 3's improved evolutionary
// stable state for an assignment: no below-average worker can still switch
// to an available higher-payoff strategy.
func VerifyEvolutionaryEquilibrium(in *Instance, a *Assignment, opt Options) error {
	s, err := loadState(in, a, opt)
	if err != nil {
		return err
	}
	return evo.VerifyEquilibrium(s)
}

// loadState regenerates the candidates with opt.VDPS and loads the
// assignment into a fresh game state for a certificate to check.
func loadState(in *Instance, a *Assignment, opt Options) (*game.State, error) {
	g, err := vdps.Generate(in, opt.VDPS)
	if err != nil {
		return nil, err
	}
	s := game.NewState(g)
	if err := s.LoadAssignment(a); err != nil {
		return nil, err
	}
	return s, nil
}

// Summarize computes the payoff metrics of an assignment for an instance.
func Summarize(in *Instance, a *Assignment) Summary {
	return payoff.Summarize(in, a)
}

// PayoffDifference returns P_dif (Equation 2) over a payoff vector.
func PayoffDifference(payoffs []float64) float64 {
	return payoff.Difference(payoffs)
}

// AveragePayoff returns the mean of a payoff vector.
func AveragePayoff(payoffs []float64) float64 {
	return payoff.Average(payoffs)
}

// Gini returns the Gini coefficient of a payoff vector (0 = perfectly
// equal), an alternative descriptive fairness measure.
func Gini(payoffs []float64) float64 { return payoff.Gini(payoffs) }

// JainIndex returns Jain's fairness index of a payoff vector (1 = perfectly
// equal, 1/n = maximally concentrated).
func JainIndex(payoffs []float64) float64 { return payoff.JainIndex(payoffs) }

// MinPayoff returns the smallest payoff — the max-min fairness objective.
func MinPayoff(payoffs []float64) float64 { return payoff.MinPayoff(payoffs) }

// PayoffQuantile returns the q-quantile of a payoff vector with linear
// interpolation.
func PayoffQuantile(payoffs []float64, q float64) float64 {
	return payoff.Quantile(payoffs, q)
}

// LorenzPoint is one point of a Lorenz curve.
type LorenzPoint = payoff.LorenzPoint

// LorenzCurve returns the Lorenz curve of a payoff vector, from (0,0) to
// (1,1) — the cumulative payoff share held by the poorest fraction of
// workers.
func LorenzCurve(payoffs []float64) []LorenzPoint {
	return payoff.Lorenz(payoffs)
}

// GenerateSYN builds the synthetic multi-center dataset of §VII-A (Table I
// defaults for zero fields).
func GenerateSYN(cfg SYNConfig) (*Problem, error) {
	return dataset.GenerateSYN(cfg)
}

// GenerateGM builds the single-center gMission-style dataset: clustered
// tasks, centroid center, k-means delivery points.
func GenerateGM(cfg GMConfig) (*Instance, error) {
	return dataset.GenerateGM(cfg)
}

// GMissionOptions configure LoadGMission.
type GMissionOptions = dataset.GMissionOptions

// LoadGMission builds an instance from raw gMission-format CSV exports
// (tasks: "id,x,y,expiry,reward"; workers: "id,x,y,maxdp"), applying the
// paper's preprocessing: centroid distribution center and k-means delivery
// points. Use this when you have the real dataset; GenerateGM provides the
// synthetic stand-in otherwise.
func LoadGMission(tasks, workers io.Reader, opt GMissionOptions) (*Instance, error) {
	return dataset.LoadGMission(tasks, workers, opt)
}

// NewPoissonArrivals returns a SimConfig.TaskSource that injects a Poisson
// number of fresh tasks per delivery point each epoch.
func NewPoissonArrivals(cfg ArrivalConfig) func(epoch int, now float64, p *Problem) {
	return dataset.NewPoissonArrivals(cfg)
}

// RushHourProfile is a bimodal daily demand multiplier (peaks ~08:00 and
// ~18:00) for ArrivalConfig.RateProfile.
func RushHourProfile(now float64) float64 { return dataset.RushHourProfile(now) }

// InstanceStats summarizes an instance's shape (counts, density, deadline
// tightness, worker geometry).
type InstanceStats = model.InstanceStats

// WriteCSV persists a problem in the library's CSV schema.
func WriteCSV(w io.Writer, p *Problem) error { return dataset.WriteCSV(w, p) }

// ReadCSV loads a problem previously written with WriteCSV.
func ReadCSV(r io.Reader) (*Problem, error) { return dataset.ReadCSV(r) }

// RenderOptions configure RenderSVG.
type RenderOptions = render.Options

// RenderSVG draws an instance — and, when a is non-nil, its routes — as a
// standalone SVG document.
func RenderSVG(w io.Writer, in *Instance, a *Assignment, opt RenderOptions) error {
	return render.SVG(w, in, a, opt)
}

// WriteAssignmentCSV exports per-center assignments as a flat route CSV
// (one row per visited delivery point) for downstream dispatch tooling.
// assignments must be indexed like p.Instances; nil entries are skipped.
func WriteAssignmentCSV(w io.Writer, p *Problem, assignments []*Assignment) error {
	return dataset.WriteAssignmentCSV(w, p, assignments)
}

// ReadAssignmentCSV parses a WriteAssignmentCSV export back into per-center
// assignments indexed like p.Instances, resolving IDs against the problem.
// Pair with Audit to re-verify a persisted assignment.
func ReadAssignmentCSV(r io.Reader, p *Problem) ([]*Assignment, error) {
	return dataset.ReadAssignmentCSV(r, p)
}
