package obs

import (
	"strconv"
	"time"
)

// VDPSEvent summarizes one candidate-generation run (vdps.Generate or
// vdps.GenerateSampled).
type VDPSEvent struct {
	// Points and Workers are the instance's sizes.
	Points, Workers int
	// Subsets counts distinct (set, last) DP states created.
	Subsets int
	// Pruned counts DP extensions discarded by the epsilon rule.
	Pruned int
	// Candidates is the number of C-VDPSs produced.
	Candidates int
	// Elapsed is the generation wall time.
	Elapsed time.Duration
}

// SolveEvent summarizes one completed single-center solve.
type SolveEvent struct {
	// Algorithm is the assigner's name (FGT, IEGT, GTA, MPTA, MMTA,
	// LEXIFAIR, EXACT).
	Algorithm string
	// CenterID identifies the distribution center.
	CenterID int
	// Workers and Points are the instance's sizes.
	Workers, Points int
	// Iterations is the solver's round count: game rounds for FGT and
	// IEGT, one for GTA, MPTA and EXACT, rounds or levels for MMTA and
	// LEXIFAIR.
	Iterations int
	// Converged reports whether an equilibrium was reached before the cap.
	Converged bool
	// Switches is the number of worker strategy switches summed over all
	// rounds. It is observed for FGT and IEGT only.
	Switches int
	// Elapsed is the solver's wall time in the attempt that succeeded,
	// excluding VDPS generation, failed attempts and retry backoff.
	Elapsed time.Duration
	// Degraded names the degradation-ladder rung that served the solve
	// ("sampled", "greedy"); empty for a full-fidelity exact solve.
	Degraded string
	// Difference and Average are the final P_dif and mean payoff of the
	// solved center.
	Difference, Average float64
	// Potential is the fairness potential Phi of the final payoffs. Only
	// FGT and IEGT compute it; the baselines leave it zero and it is not
	// observed for them.
	Potential float64
}

// AssignEvent summarizes one multi-center platform assignment.
type AssignEvent struct {
	// Algorithm is the assigner's name.
	Algorithm string
	// Centers, Workers and Points are the problem's total sizes.
	Centers, Workers, Points int
	// Parallelism is the most per-center solves that could run at once:
	// the fan-out bound, capped by the number of centers with workers.
	Parallelism int
	// Elapsed is the wall time of the whole assignment.
	Elapsed time.Duration
}

// Recorder receives telemetry events from the platform's solve path: the
// per-center solve attempts and the multi-center assignment emit them; the
// solver kernels (vdps, game, evo) only record spans. Implementations must
// be safe for concurrent use: the platform solves centers in parallel and
// the HTTP service handles overlapping requests. A nil Recorder means
// telemetry is disabled; the platform guards every call behind a nil check
// so the disabled path costs one pointer comparison.
type Recorder interface {
	// RecordVDPS is called once per successful candidate-generation run.
	RecordVDPS(VDPSEvent)
	// RecordSolve is called once per completed single-center solve.
	RecordSolve(SolveEvent)
	// RecordAssign is called once per completed multi-center assignment.
	RecordAssign(AssignEvent)
}

// MetricsRecorder is a Recorder that aggregates events into a Registry as
// Prometheus-style metrics. Label-free instruments are pre-registered at
// construction so the first exposition already lists them with zero values;
// algorithm-labeled children materialize on first use.
type MetricsRecorder struct {
	reg *Registry

	vdpsSubsets    *Counter
	vdpsPruned     *Counter
	vdpsCandidates *Counter
	vdpsSeconds    *Histogram

	solveIterations *Histogram
	solveSeconds    *Histogram

	assignSeconds     *Histogram
	assignCenters     *Counter
	assignParallelism *Gauge
	assignWorkers     *Counter
}

// NewMetricsRecorder builds a MetricsRecorder over the registry,
// pre-registering every fixed-name instrument.
func NewMetricsRecorder(reg *Registry) *MetricsRecorder {
	return &MetricsRecorder{
		reg: reg,
		vdpsSubsets: reg.Counter("fta_vdps_subsets_total",
			"Dynamic-program (set, last) states explored during VDPS generation."),
		vdpsPruned: reg.Counter("fta_vdps_pruned_total",
			"DP extensions discarded by the epsilon distance-pruning rule."),
		vdpsCandidates: reg.Counter("fta_vdps_candidates_total",
			"C-VDPS candidate sets generated."),
		vdpsSeconds: reg.Histogram("fta_vdps_generation_seconds",
			"Wall time of one VDPS candidate-generation run.", DefBuckets),
		solveIterations: reg.Histogram("fta_solve_iterations",
			"Game rounds per single-center solve.", CountBuckets),
		solveSeconds: reg.Histogram("fta_solve_seconds",
			"Wall time of one single-center solve, excluding VDPS generation.", DefBuckets),
		assignSeconds: reg.Histogram("fta_assign_seconds",
			"Wall time of one multi-center assignment.", DefBuckets),
		assignCenters: reg.Counter("fta_assign_centers_total",
			"Distribution centers solved by multi-center assignments."),
		assignParallelism: reg.Gauge("fta_assign_parallelism",
			"Concurrent per-center solves used by the latest assignment."),
		assignWorkers: reg.Counter("fta_assign_workers_total",
			"Workers covered by multi-center assignments."),
	}
}

// RecordVDPS implements Recorder.
func (m *MetricsRecorder) RecordVDPS(e VDPSEvent) {
	m.vdpsSubsets.Add(int64(e.Subsets))
	m.vdpsPruned.Add(int64(e.Pruned))
	m.vdpsCandidates.Add(int64(e.Candidates))
	m.vdpsSeconds.Observe(e.Elapsed.Seconds())
}

// Help strings of the per-solve payoff histograms, shared between
// RecordSolve and SeedAlgorithms so pre-registered and on-demand families
// are identical.
const (
	helpPayoffDifference = "Final P_dif per completed single-center solve."
	helpAveragePayoff    = "Final mean worker payoff per completed single-center solve."
	helpPotential        = "Final fairness potential Phi per completed iterative solve."
	helpStrategyChanges  = "Worker strategy switches across all solver rounds."
	helpSolveTotal       = "Completed single-center solves."
)

// RecordSolve implements Recorder.
func (m *MetricsRecorder) RecordSolve(e SolveEvent) {
	alg := L("algorithm", e.Algorithm)
	m.solveSeconds.Observe(e.Elapsed.Seconds())
	m.reg.Histogram("fta_solve_payoff_difference",
		helpPayoffDifference, PayoffBuckets, alg).Observe(e.Difference)
	m.reg.Histogram("fta_solve_average_payoff",
		helpAveragePayoff, PayoffBuckets, alg).Observe(e.Average)
	if e.Algorithm == "FGT" || e.Algorithm == "IEGT" {
		// Game rounds, Phi and strategy switches exist only for the two
		// game dynamics. The baselines count iterations too (GTA, MPTA and
		// EXACT one, MMTA and LEXIFAIR their rounds or levels), but those
		// are not game rounds, and their zero Phi would just distort the
		// distribution.
		m.solveIterations.Observe(float64(e.Iterations))
		m.reg.Histogram("fta_solve_potential",
			helpPotential, PayoffBuckets, alg).Observe(e.Potential)
		m.reg.Counter("fta_solve_strategy_changes_total",
			helpStrategyChanges, alg).Add(int64(e.Switches))
	}
	m.reg.Counter("fta_solve_total", helpSolveTotal,
		alg, L("converged", strconv.FormatBool(e.Converged))).Inc()
	if e.Degraded != "" {
		// Shares the fta_degrade_total family with NewFaultMetrics via the
		// registry's first-registration semantics; counted here — and only
		// here — so a degraded solve is never double-counted.
		m.reg.Counter("fta_degrade_total",
			"Solves served by a degradation-ladder rung.", L("rung", e.Degraded)).Inc()
	}
}

// SeedAlgorithms pre-registers the algorithm-labeled solve families for the
// given algorithm names so the first scrape lists them with zero values,
// like the label-free families NewMetricsRecorder registers. Call it at
// server startup with the algorithms the service can run.
func (m *MetricsRecorder) SeedAlgorithms(algorithms ...string) {
	for _, a := range algorithms {
		alg := L("algorithm", a)
		m.reg.Histogram("fta_solve_payoff_difference", helpPayoffDifference, PayoffBuckets, alg)
		m.reg.Histogram("fta_solve_average_payoff", helpAveragePayoff, PayoffBuckets, alg)
		m.reg.Histogram("fta_solve_potential", helpPotential, PayoffBuckets, alg)
		m.reg.Counter("fta_solve_strategy_changes_total", helpStrategyChanges, alg)
		m.reg.Counter("fta_solve_total", helpSolveTotal, alg, L("converged", "true"))
		m.reg.Counter("fta_solve_total", helpSolveTotal, alg, L("converged", "false"))
		m.reg.Counter("fta_assign_total", "Completed multi-center assignments.", alg)
	}
}

// RecordAssign implements Recorder.
func (m *MetricsRecorder) RecordAssign(e AssignEvent) {
	m.assignSeconds.Observe(e.Elapsed.Seconds())
	m.assignCenters.Add(int64(e.Centers))
	m.assignParallelism.Set(float64(e.Parallelism))
	m.reg.Counter("fta_assign_total", "Completed multi-center assignments.",
		L("algorithm", e.Algorithm)).Inc()
	m.assignWorkers.Add(int64(e.Workers))
}
