package obs

// FaultMetrics bundles the instruments of the resilience layer
// (internal/fault): retry counters. A nil *FaultMetrics
// disables the telemetry entirely. See docs/RESILIENCE.md.
type FaultMetrics struct {
	// RetrySolve counts backoff retries of per-center solve attempts.
	RetrySolve *Counter
	// RetryJobs counts backoff retries of asynchronous job executions.
	RetryJobs *Counter
	// ExhaustedSolve and ExhaustedJobs count retry loops that ran out of
	// attempts without success, per scope.
	ExhaustedSolve, ExhaustedJobs *Counter
}

// NewFaultMetrics registers the fta_retry_* and fta_degrade_* families on
// the registry and returns the bundle. Safe to call more than once on the
// same registry via its first-registration semantics. fta_degrade_total is
// only pre-registered here: MetricsRecorder.RecordSolve counts it.
func NewFaultMetrics(reg *Registry) *FaultMetrics {
	for _, rung := range []string{"sampled", "greedy"} {
		reg.Counter("fta_degrade_total",
			"Solves served by a degradation-ladder rung.", L("rung", rung))
	}
	return &FaultMetrics{
		RetrySolve: reg.Counter("fta_retry_total",
			"Backoff retries by scope.", L("scope", "solve")),
		RetryJobs: reg.Counter("fta_retry_total",
			"Backoff retries by scope.", L("scope", "jobs")),
		ExhaustedSolve: reg.Counter("fta_retry_exhausted_total",
			"Retry loops that ran out of attempts, by scope.", L("scope", "solve")),
		ExhaustedJobs: reg.Counter("fta_retry_exhausted_total",
			"Retry loops that ran out of attempts, by scope.", L("scope", "jobs")),
	}
}
