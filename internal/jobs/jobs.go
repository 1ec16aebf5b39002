// Package jobs is the asynchronous solve-job subsystem of the fairtask
// service: a bounded FIFO queue with admission control, a fixed-size worker
// pool executing solves under per-job deadlines, a job lifecycle state
// machine, and a TTL- plus capacity-bounded result store.
//
// The design targets a continuously loaded assignment service. Synchronous
// request/response solving couples a client connection to a CPU-heavy
// computation; under heavy traffic that means unbounded concurrency and
// work wasted on disconnected clients. The manager instead admits at most
// QueueDepth pending solves (rejecting the rest immediately, so callers can
// answer 429 and shed load), runs them on Workers goroutines, and threads a
// per-job context.Context into the solver so both explicit cancellation and
// deadline expiry stop the iteration loops inside FGT/IEGT/MPTA and the
// VDPS dynamic program.
//
// Lifecycle: queued -> running -> done | failed | canceled. A job canceled
// while queued never runs. Terminal jobs stay queryable until evicted by
// TTL or by the store's capacity bound (oldest-terminal-first). Close
// drains: submission stops, queued jobs still execute, and only when the
// drain context expires are the survivors force-canceled.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"fairtask/internal/fault"
	"fairtask/internal/obs"
)

// State is a job lifecycle state.
type State string

// The job lifecycle states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Task is the unit of work a job executes. The context is canceled when the
// job is canceled, its deadline expires, or the manager force-stops during
// shutdown; tasks must observe it to make cancellation effective.
type Task func(ctx context.Context) (any, error)

// Sentinel errors returned by Submit, Get and Cancel.
var (
	// ErrQueueFull means the bounded queue has no room; callers should
	// reject the request (HTTP 429) rather than wait.
	ErrQueueFull = errors.New("jobs: queue is full")
	// ErrStoreFull means the result store holds MaxJobs non-evictable
	// (non-terminal) jobs; like ErrQueueFull it signals overload.
	ErrStoreFull = errors.New("jobs: result store is full")
	// ErrNotAccepting means the manager is draining or closed.
	ErrNotAccepting = errors.New("jobs: not accepting new jobs")
	// ErrNotFound means the job ID is unknown or already evicted.
	ErrNotFound = errors.New("jobs: no such job")
)

// Config parameterizes a Manager. The zero value of every field selects a
// production-safe default.
type Config struct {
	// Workers is the worker pool size. Zero means runtime.GOMAXPROCS(0):
	// solves are CPU-bound, so more workers than cores only adds contention.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs. Zero
	// means 64.
	QueueDepth int
	// TTL is how long a terminal job's result stays queryable. Zero means
	// 15 minutes; negative disables TTL eviction.
	TTL time.Duration
	// MaxJobs caps the result store. Zero means 4096. The effective cap is
	// raised to QueueDepth+Workers+1 so live jobs can always be stored.
	MaxJobs int
	// Timeout is the per-job execution deadline, measured from run start.
	// Zero means no deadline.
	Timeout time.Duration
	// Metrics receives the subsystem's telemetry. Nil disables it.
	Metrics *obs.JobsMetrics
	// Traces receives one span trace per executed job (a "job" root whose
	// "job" attribute is the job ID, with "job.queued" and "job.run"
	// phases; solve-path spans nest under "job.run"). Nil disables job
	// tracing entirely — jobs then run without an active span and every
	// solve-path span site stays a nil check.
	Traces *obs.TraceRing
	// Retry re-executes failed job tasks under this policy — capped
	// exponential backoff with deterministic seeded jitter. The whole retry
	// loop runs inside the job's deadline (Timeout), and context
	// cancellation is never retried, so a canceled job stops immediately.
	// Nil or MaxAttempts < 2 disables retrying. A panicking attempt is
	// recovered into a *PanicError and counts as a retryable failure.
	Retry *fault.RetryPolicy
	// Fault receives retry telemetry (fta_retry_total{scope="jobs"}).
	// Nil disables it.
	Fault *obs.FaultMetrics
	// Logger receives job lifecycle logs. Nil disables logging.
	Logger *slog.Logger
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.TTL == 0 {
		c.TTL = 15 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if min := c.QueueDepth + c.Workers + 1; c.MaxJobs < min {
		c.MaxJobs = min
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Snapshot is a point-in-time copy of a job's externally visible state.
type Snapshot struct {
	// ID is the job's opaque identifier.
	ID string
	// State is the lifecycle state at snapshot time.
	State State
	// SubmittedAt, StartedAt and FinishedAt are the lifecycle timestamps;
	// StartedAt/FinishedAt are zero until the transition happens.
	SubmittedAt, StartedAt, FinishedAt time.Time
	// Err is the failure or cancellation cause for failed/canceled jobs.
	Err error
	// Result is the task's return value for done jobs.
	Result any
	// Attempts is how many times the task ran (1 without retries; 0 for
	// jobs that never started).
	Attempts int
}

// job is the manager-internal record; all fields past task are guarded by
// Manager.mu.
type job struct {
	id        string
	task      Task
	ctx       context.Context
	cancel    context.CancelFunc
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	err       error
	result    any
	attempts  int
	cancelReq bool
	done      chan struct{} // closed on reaching a terminal state
}

// Manager owns the queue, the worker pool and the result store.
type Manager struct {
	cfg   Config
	queue chan *job

	rootCtx    context.Context
	rootCancel context.CancelFunc

	mu        sync.Mutex
	jobs      map[string]*job
	order     []string // submission order, for oldest-first eviction scans
	accepting bool
	closed    bool
	running   int

	wg          sync.WaitGroup
	janitorStop chan struct{}
}

// New starts a Manager with cfg's worker pool and, when TTL eviction is
// enabled, a background janitor sweeping expired results.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:         cfg,
		queue:       make(chan *job, cfg.QueueDepth),
		jobs:        make(map[string]*job),
		accepting:   true,
		janitorStop: make(chan struct{}),
	}
	m.rootCtx, m.rootCancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	if cfg.TTL > 0 {
		interval := cfg.TTL / 2
		if interval < time.Second {
			interval = time.Second
		}
		go m.janitor(interval)
	}
	return m
}

// Submit enqueues a task and returns the queued job's snapshot. It never
// blocks: a full queue returns ErrQueueFull, a store saturated with live
// jobs returns ErrStoreFull, and a draining manager returns ErrNotAccepting.
func (m *Manager) Submit(task Task) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.accepting {
		m.reject()
		return Snapshot{}, ErrNotAccepting
	}
	m.evictLocked(m.cfg.Clock())
	if len(m.jobs) >= m.cfg.MaxJobs {
		m.reject()
		return Snapshot{}, ErrStoreFull
	}

	j := &job{
		id:        newID(),
		task:      task,
		state:     StateQueued,
		submitted: m.cfg.Clock(),
		done:      make(chan struct{}),
	}
	j.ctx, j.cancel = context.WithCancel(m.rootCtx)
	select {
	case m.queue <- j:
	default:
		j.cancel()
		m.reject()
		return Snapshot{}, ErrQueueFull
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	if mt := m.cfg.Metrics; mt != nil {
		mt.Submitted.Inc()
		mt.QueueDepth.Inc()
	}
	if m.cfg.Logger != nil {
		m.cfg.Logger.Info("job queued", "job", j.id, "queue_depth", len(m.queue))
	}
	return snapshotLocked(j), nil
}

// reject counts a refused submission; callers hold m.mu.
func (m *Manager) reject() {
	if mt := m.cfg.Metrics; mt != nil {
		mt.Rejected.Inc()
	}
}

// Get returns the job's current snapshot, or ErrNotFound.
func (m *Manager) Get(id string) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return Snapshot{}, ErrNotFound
	}
	return snapshotLocked(j), nil
}

// Cancel requests cancellation of a job. A queued job transitions to
// canceled immediately and never runs; a running job has its context
// canceled and transitions once the task observes it; a terminal job is
// left unchanged. The post-request snapshot is returned.
func (m *Manager) Cancel(id string) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return Snapshot{}, ErrNotFound
	}
	switch j.state {
	case StateQueued:
		j.cancelReq = true
		j.cancel()
		m.finishLocked(j, StateCanceled, context.Canceled, nil)
	case StateRunning:
		j.cancelReq = true
		j.cancel()
	}
	return snapshotLocked(j), nil
}

// Wait blocks until the job reaches a terminal state or ctx is done, and
// returns the final snapshot. Exposed for tests and embedders; the HTTP API
// polls instead.
func (m *Manager) Wait(ctx context.Context, id string) (Snapshot, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return Snapshot{}, ErrNotFound
	}
	select {
	case <-j.done:
		return m.Get(id)
	case <-ctx.Done():
		return Snapshot{}, ctx.Err()
	}
}

// Stats reports the manager's admission state for readiness probes.
type Stats struct {
	// Accepting is false once draining has begun.
	Accepting bool `json:"accepting"`
	// QueueDepth and QueueCapacity describe the bounded queue.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// Workers is the pool size; Running is how many are busy.
	Workers int `json:"workers"`
	Running int `json:"running"`
	// Stored is the number of jobs in the result store.
	Stored int `json:"stored"`
}

// Stats returns the current admission state.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Accepting:     m.accepting,
		QueueDepth:    len(m.queue),
		QueueCapacity: cap(m.queue),
		Workers:       m.cfg.Workers,
		Running:       m.running,
		Stored:        len(m.jobs),
	}
}

// Close drains the subsystem: submission stops immediately, queued jobs
// still execute, and the call blocks until every job reaches a terminal
// state. When ctx expires first, all remaining jobs are force-canceled and
// ctx.Err() is returned after the workers exit. Close is idempotent.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return nil
	}
	m.accepting = false
	m.closed = true
	close(m.queue)
	close(m.janitorStop)
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.forceCancel()
		<-done
		return ctx.Err()
	}
}

// forceCancel cancels the root context (stopping every running task) and
// marks still-queued jobs cancel-requested so the draining workers retire
// them as canceled instead of starting them.
func (m *Manager) forceCancel() {
	m.mu.Lock()
	for _, j := range m.jobs {
		if !j.state.Terminal() {
			j.cancelReq = true
		}
	}
	m.mu.Unlock()
	m.rootCancel()
}

// worker executes queued jobs until the queue is closed and drained.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// runJob drives one job through running to a terminal state.
func (m *Manager) runJob(j *job) {
	mt := m.cfg.Metrics
	m.mu.Lock()
	if mt != nil {
		mt.QueueDepth.Dec()
	}
	if j.state != StateQueued || j.cancelReq {
		// Canceled while queued (state already terminal), or force-canceled
		// during drain (still queued: retire without running).
		if !j.state.Terminal() {
			m.finishLocked(j, StateCanceled, context.Canceled, nil)
		}
		m.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = m.cfg.Clock()
	m.running++
	wait := j.started.Sub(j.submitted)
	m.mu.Unlock()
	if mt != nil {
		mt.Running.Inc()
		mt.WaitSeconds.Observe(wait.Seconds())
	}

	ctx := j.ctx
	if m.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.cfg.Timeout)
		defer cancel()
	}
	// Job tracing: the tracer is anchored at submit time so the queued
	// phase sits on the timeline; the run span becomes the job context's
	// active span and the solve path nests under it.
	var tracer *obs.Tracer
	var rootSp, runSp *obs.Span
	if m.cfg.Traces != nil {
		tracer = obs.NewTracerAt(j.submitted)
		rootSp = tracer.Root("job")
		rootSp.SetAttr("job", j.id)
		tracer.RecordRange(rootSp, "job.queued", j.submitted, j.started)
		runSp = rootSp.Child("job.run")
		ctx = obs.ContextWithSpan(ctx, runSp)
	}
	result, err := m.execute(ctx, j)
	if tracer != nil {
		runSp.End()
		rootSp.End()
		m.cfg.Traces.Add(tracer.Collect("job " + j.id))
	}

	m.mu.Lock()
	m.running--
	switch {
	case j.cancelReq || errors.Is(err, context.Canceled):
		if err == nil {
			err = context.Canceled
		}
		m.finishLocked(j, StateCanceled, err, nil)
	case err != nil:
		m.finishLocked(j, StateFailed, err, nil)
	default:
		m.finishLocked(j, StateDone, nil, result)
	}
	m.mu.Unlock()
	if mt != nil {
		mt.Running.Dec()
	}
}

// finishLocked moves a job to a terminal state; callers hold m.mu.
func (m *Manager) finishLocked(j *job, state State, err error, result any) {
	j.state = state
	j.err = err
	j.result = result
	j.finished = m.cfg.Clock()
	close(j.done)
	if mt := m.cfg.Metrics; mt != nil {
		if !j.started.IsZero() {
			mt.RunSeconds.Observe(j.finished.Sub(j.started).Seconds())
		}
		switch state {
		case StateDone:
			mt.Done.Inc()
		case StateFailed:
			mt.Failed.Inc()
		case StateCanceled:
			mt.Canceled.Inc()
		}
	}
	if m.cfg.Logger != nil {
		attrs := []any{"job", j.id, "state", string(state)}
		if err != nil {
			attrs = append(attrs, "error", err.Error())
		}
		m.cfg.Logger.Info("job finished", attrs...)
	}
}

// fpRun is hit at the start of every job task attempt, so chaos specs can
// fail, delay or panic job executions ("jobs.run:err:3"). Disarmed it is one
// atomic load per attempt.
var fpRun = fault.Point("jobs.run")

// execute runs the job's task once, or under Config.Retry when retrying is
// enabled. Each attempt passes the jobs.run failpoint first, and a panicking
// attempt — task or failpoint — is recovered into a *PanicError, so retry
// treats panics like failures.
func (m *Manager) execute(ctx context.Context, j *job) (any, error) {
	var result any
	attempt := func(actx context.Context) (err error) {
		m.mu.Lock()
		j.attempts++
		m.mu.Unlock()
		// The recover covers the failpoint as well as the task, so a
		// panicking solve or a panic-kind jobs.run arming is a retryable
		// failure, not a dead worker goroutine.
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Value: r}
			}
		}()
		if err := fpRun.Hit(actx); err != nil {
			return fmt.Errorf("jobs: run: %w", err)
		}
		result, err = j.task(actx)
		return err
	}
	p := m.cfg.Retry
	if p == nil || p.MaxAttempts < 2 {
		return result, attempt(ctx)
	}
	pol := *p
	chain := pol.OnRetry
	pol.OnRetry = func(n int, d time.Duration, err error) {
		if ft := m.cfg.Fault; ft != nil {
			ft.RetryJobs.Inc()
		}
		if m.cfg.Logger != nil {
			m.cfg.Logger.Warn("job attempt failed, retrying",
				"job", j.id, "attempt", n, "backoff", d, "error", err.Error())
		}
		if chain != nil {
			chain(n, d, err)
		}
	}
	err := fault.NewRetrier(pol).Do(ctx, attempt)
	if err != nil {
		var re *fault.RetryError
		if errors.As(err, &re) {
			if ft := m.cfg.Fault; ft != nil {
				ft.ExhaustedJobs.Inc()
			}
		}
		return nil, err
	}
	return result, nil
}

// PanicError wraps a panic recovered from a job's task.
type PanicError struct{ Value any }

// Error implements error.
func (p *PanicError) Error() string { return "jobs: task panicked" }

// Sweep evicts expired and over-capacity terminal jobs now. The janitor
// calls it periodically; it is exported for embedders that disable the
// janitor (negative TTL) and for tests.
func (m *Manager) Sweep() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evictLocked(m.cfg.Clock())
}

// janitor periodically sweeps the result store until Close.
func (m *Manager) janitor(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.Sweep()
		case <-m.janitorStop:
			return
		}
	}
}

// evictLocked drops terminal jobs past TTL, then — while the store is at or
// over capacity — the oldest terminal jobs; callers hold m.mu. Live jobs
// are never evicted.
func (m *Manager) evictLocked(now time.Time) {
	evicted := 0
	keep := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if j == nil {
			continue
		}
		expired := m.cfg.TTL > 0 && j.state.Terminal() && now.Sub(j.finished) >= m.cfg.TTL
		if expired {
			delete(m.jobs, id)
			evicted++
			continue
		}
		keep = append(keep, id)
	}
	m.order = keep
	if len(m.jobs) >= m.cfg.MaxJobs {
		keep = m.order[:0]
		for _, id := range m.order {
			j := m.jobs[id]
			if len(m.jobs) >= m.cfg.MaxJobs && j.state.Terminal() {
				delete(m.jobs, id)
				evicted++
				continue
			}
			keep = append(keep, id)
		}
		m.order = keep
	}
	if evicted > 0 {
		if mt := m.cfg.Metrics; mt != nil {
			mt.Evicted.Add(int64(evicted))
		}
	}
}

// snapshotLocked copies a job's visible state; callers hold m.mu.
func snapshotLocked(j *job) Snapshot {
	return Snapshot{
		ID:          j.id,
		State:       j.state,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Err:         j.err,
		Result:      j.result,
		Attempts:    j.attempts,
	}
}

// newID returns a 16-hex-character cryptographically random job ID.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; if it somehow
		// does, an ID collision is still vanishingly unlikely via time.
		return hex.EncodeToString([]byte(time.Now().Format(time.RFC3339Nano)))
	}
	return hex.EncodeToString(b[:])
}
