package obs

// JobsMetrics bundles the instruments of the asynchronous solve-job
// subsystem (internal/jobs). All fixed-name instruments are registered at
// construction so the first /metrics scrape already lists every family with
// zero values; a nil *JobsMetrics disables job telemetry entirely.
type JobsMetrics struct {
	// QueueDepth is the number of jobs currently waiting in the queue.
	QueueDepth *Gauge
	// Running is the number of jobs currently executing on workers.
	Running *Gauge
	// WaitSeconds observes queue wait time (submit to run start) per job.
	WaitSeconds *Histogram
	// RunSeconds observes execution time (run start to finish) per job.
	RunSeconds *Histogram
	// Submitted counts accepted job submissions.
	Submitted *Counter
	// Done, Failed and Canceled count terminal job states.
	Done, Failed, Canceled *Counter
	// Rejected counts submissions refused by admission control (queue or
	// store full, or the manager draining).
	Rejected *Counter
	// Evicted counts terminal jobs dropped from the result store by TTL or
	// capacity eviction.
	Evicted *Counter
}

// NewJobsMetrics registers the fta_jobs_* families on the registry and
// returns the bundle. Safe to call more than once on the same registry: the
// instruments are shared via the registry's first-registration semantics.
func NewJobsMetrics(reg *Registry) *JobsMetrics {
	return &JobsMetrics{
		QueueDepth: reg.Gauge("fta_jobs_queue_depth",
			"Solve jobs currently waiting in the bounded queue."),
		Running: reg.Gauge("fta_jobs_running",
			"Solve jobs currently executing on the worker pool."),
		WaitSeconds: reg.Histogram("fta_jobs_wait_seconds",
			"Queue wait time per job, from submission to run start.", DefBuckets),
		RunSeconds: reg.Histogram("fta_jobs_run_seconds",
			"Execution time per job, from run start to completion.", DefBuckets),
		Submitted: reg.Counter("fta_jobs_submitted_total",
			"Solve jobs accepted into the queue."),
		Done: reg.Counter("fta_jobs_total",
			"Solve jobs by terminal state.", L("state", "done")),
		Failed: reg.Counter("fta_jobs_total",
			"Solve jobs by terminal state.", L("state", "failed")),
		Canceled: reg.Counter("fta_jobs_total",
			"Solve jobs by terminal state.", L("state", "canceled")),
		Rejected: reg.Counter("fta_jobs_rejected_total",
			"Job submissions refused by admission control."),
		Evicted: reg.Counter("fta_jobs_evicted_total",
			"Terminal jobs dropped from the result store by TTL or capacity."),
	}
}
