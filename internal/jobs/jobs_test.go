package jobs

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"fairtask/internal/obs"
)

// sleepTask returns a task that blocks until release is closed or the job
// context is done, reporting which happened.
func sleepTask(release <-chan struct{}) Task {
	return func(ctx context.Context) (any, error) {
		select {
		case <-release:
			return "ok", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func mustSubmit(t *testing.T, m *Manager, task Task) Snapshot {
	t.Helper()
	s, err := m.Submit(task)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return s
}

func waitState(t *testing.T, m *Manager, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if s.State == want {
			return s
		}
		time.Sleep(time.Millisecond)
	}
	s, _ := m.Get(id)
	t.Fatalf("job %s: state %s, want %s", id, s.State, want)
	return Snapshot{}
}

func TestJobLifecycleDone(t *testing.T) {
	m := New(Config{Workers: 2, QueueDepth: 4})
	defer m.Close(context.Background())

	s := mustSubmit(t, m, func(ctx context.Context) (any, error) { return 42, nil })
	if s.State != StateQueued {
		t.Fatalf("submit state = %s, want queued", s.State)
	}
	fin, err := m.Wait(context.Background(), s.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if fin.State != StateDone || fin.Result != 42 {
		t.Fatalf("final = %+v, want done/42", fin)
	}
	if fin.FinishedAt.Before(fin.StartedAt) || fin.StartedAt.Before(fin.SubmittedAt) {
		t.Fatalf("timestamps out of order: %+v", fin)
	}
}

func TestJobFailure(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 2})
	defer m.Close(context.Background())

	boom := errors.New("boom")
	s := mustSubmit(t, m, func(ctx context.Context) (any, error) { return nil, boom })
	fin, err := m.Wait(context.Background(), s.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if fin.State != StateFailed || !errors.Is(fin.Err, boom) {
		t.Fatalf("final = %v/%v, want failed/boom", fin.State, fin.Err)
	}
}

func TestQueueSaturationRejects(t *testing.T) {
	reg := obs.NewRegistry()
	mt := obs.NewJobsMetrics(reg)
	m := New(Config{Workers: 1, QueueDepth: 2, Metrics: mt})
	release := make(chan struct{})
	defer m.Close(context.Background()) // LIFO: runs after release is closed
	defer close(release)

	// Occupy the single worker, then fill the queue.
	busy := mustSubmit(t, m, sleepTask(release))
	waitState(t, m, busy.ID, StateRunning)
	for i := 0; i < 2; i++ {
		mustSubmit(t, m, sleepTask(release))
	}
	if _, err := m.Submit(sleepTask(release)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit on full queue: err = %v, want ErrQueueFull", err)
	}
	st := m.Stats()
	if st.QueueDepth != 2 || st.QueueCapacity != 2 || st.Running != 1 {
		t.Fatalf("stats = %+v, want depth 2/2 running 1", st)
	}
	if got := mt.Rejected.Value(); got != 1 {
		t.Fatalf("rejected_total = %d, want 1", got)
	}
}

func TestCancelRunning(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 2})
	defer m.Close(context.Background())

	started := make(chan struct{})
	var once sync.Once
	s := mustSubmit(t, m, func(ctx context.Context) (any, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	if snap, err := m.Cancel(s.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	} else if snap.State != StateRunning && snap.State != StateCanceled {
		t.Fatalf("post-cancel state = %s", snap.State)
	}
	fin := waitState(t, m, s.ID, StateCanceled)
	if !errors.Is(fin.Err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", fin.Err)
	}
}

func TestCancelQueuedNeverRuns(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	defer m.Close(context.Background())

	busy := mustSubmit(t, m, sleepTask(release))
	waitState(t, m, busy.ID, StateRunning)

	ran := make(chan struct{})
	queued := mustSubmit(t, m, func(ctx context.Context) (any, error) {
		close(ran)
		return nil, nil
	})
	snap, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if snap.State != StateCanceled {
		t.Fatalf("queued job post-cancel state = %s, want canceled", snap.State)
	}
	close(release)
	waitState(t, m, busy.ID, StateDone)
	select {
	case <-ran:
		t.Fatal("canceled queued job still ran")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestCancelTerminalIsNoop(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 1})
	defer m.Close(context.Background())

	s := mustSubmit(t, m, func(ctx context.Context) (any, error) { return "v", nil })
	m.Wait(context.Background(), s.ID)
	snap, err := m.Cancel(s.ID)
	if err != nil {
		t.Fatalf("Cancel terminal: %v", err)
	}
	if snap.State != StateDone || snap.Result != "v" {
		t.Fatalf("terminal cancel mutated job: %+v", snap)
	}
}

func TestGetUnknown(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close(context.Background())
	if _, err := m.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get unknown: %v, want ErrNotFound", err)
	}
	if _, err := m.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel unknown: %v, want ErrNotFound", err)
	}
}

func TestPerJobTimeout(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 1, Timeout: 20 * time.Millisecond})
	defer m.Close(context.Background())

	s := mustSubmit(t, m, func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	fin, err := m.Wait(context.Background(), s.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if fin.State != StateFailed || !errors.Is(fin.Err, context.DeadlineExceeded) {
		t.Fatalf("final = %v/%v, want failed/deadline", fin.State, fin.Err)
	}
}

func TestTTLEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	reg := obs.NewRegistry()
	mt := obs.NewJobsMetrics(reg)
	m := New(Config{Workers: 1, QueueDepth: 4, TTL: time.Minute, Metrics: mt, Clock: clock})
	defer m.Close(context.Background())

	s := mustSubmit(t, m, func(ctx context.Context) (any, error) { return nil, nil })
	m.Wait(context.Background(), s.ID)

	m.Sweep()
	if _, err := m.Get(s.ID); err != nil {
		t.Fatalf("fresh terminal job evicted early: %v", err)
	}

	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	m.Sweep()
	if _, err := m.Get(s.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired job still present: err = %v", err)
	}
	if got := mt.Evicted.Value(); got != 1 {
		t.Fatalf("evicted_total = %d, want 1", got)
	}
}

func TestCapacityEvictionDropsOldestTerminal(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 1, TTL: -1, MaxJobs: 3})
	defer m.Close(context.Background())
	// Effective MaxJobs = QueueDepth+Workers+1 = 3.

	var ids []string
	for i := 0; i < 3; i++ {
		s := mustSubmit(t, m, func(ctx context.Context) (any, error) { return nil, nil })
		m.Wait(context.Background(), s.ID)
		ids = append(ids, s.ID)
	}
	// Store is at capacity with 3 terminal jobs; the next submit must evict
	// the oldest to make room.
	s := mustSubmit(t, m, func(ctx context.Context) (any, error) { return nil, nil })
	m.Wait(context.Background(), s.ID)
	if _, err := m.Get(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest terminal job not evicted: err = %v", err)
	}
	if _, err := m.Get(s.ID); err != nil {
		t.Fatalf("newest job missing: %v", err)
	}
}

func TestCloseDrainsQueuedJobs(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 4})
	var ran sync.WaitGroup
	ran.Add(3)
	var ids []string
	for i := 0; i < 3; i++ {
		s := mustSubmit(t, m, func(ctx context.Context) (any, error) {
			ran.Done()
			return nil, nil
		})
		ids = append(ids, s.ID)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ran.Wait()
	for _, id := range ids {
		s, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s) after drain: %v", id, err)
		}
		if s.State != StateDone {
			t.Fatalf("job %s after drain: %s, want done", id, s.State)
		}
	}
	if _, err := m.Submit(func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrNotAccepting) {
		t.Fatalf("Submit after Close: %v, want ErrNotAccepting", err)
	}
	if st := m.Stats(); st.Accepting {
		t.Fatal("Stats().Accepting = true after Close")
	}
}

func TestCloseForceCancelsOnDeadline(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 2})
	stuck := mustSubmit(t, m, func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	waitState(t, m, stuck.ID, StateRunning)
	queued := mustSubmit(t, m, func(ctx context.Context) (any, error) { return nil, nil })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close: %v, want deadline exceeded", err)
	}
	for _, id := range []string{stuck.ID, queued.ID} {
		s, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if s.State != StateCanceled {
			t.Fatalf("job %s after forced close: %s, want canceled", id, s.State)
		}
	}
}

func TestTaskPanicBecomesFailure(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 1})
	defer m.Close(context.Background())

	s := mustSubmit(t, m, func(ctx context.Context) (any, error) { panic("kaboom") })
	fin, err := m.Wait(context.Background(), s.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	var pe *PanicError
	if fin.State != StateFailed || !errors.As(fin.Err, &pe) || pe.Value != "kaboom" {
		t.Fatalf("final = %v/%v, want failed/PanicError(kaboom)", fin.State, fin.Err)
	}
	// The worker must survive the panic.
	s2 := mustSubmit(t, m, func(ctx context.Context) (any, error) { return "alive", nil })
	fin2, _ := m.Wait(context.Background(), s2.ID)
	if fin2.State != StateDone {
		t.Fatalf("worker dead after panic: job 2 state = %s", fin2.State)
	}
}

func TestMetricsTerminalCounters(t *testing.T) {
	reg := obs.NewRegistry()
	mt := obs.NewJobsMetrics(reg)
	m := New(Config{Workers: 1, QueueDepth: 4, Metrics: mt})
	defer m.Close(context.Background())

	ok := mustSubmit(t, m, func(ctx context.Context) (any, error) { return nil, nil })
	m.Wait(context.Background(), ok.ID)
	bad := mustSubmit(t, m, func(ctx context.Context) (any, error) { return nil, errors.New("x") })
	m.Wait(context.Background(), bad.ID)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := sb.String()
	for _, want := range []string{
		`fta_jobs_total{state="done"} 1`,
		`fta_jobs_total{state="failed"} 1`,
		`fta_jobs_submitted_total 2`,
		"fta_jobs_queue_depth 0",
		"fta_jobs_running 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestConcurrentSubmitCancelGet(t *testing.T) {
	m := New(Config{Workers: 4, QueueDepth: 64})
	defer m.Close(context.Background())

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s, err := m.Submit(func(ctx context.Context) (any, error) { return i, nil })
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				if i%3 == 0 {
					m.Cancel(s.ID)
				}
				m.Get(s.ID)
				m.Stats()
			}
		}()
	}
	wg.Wait()
}

// TestJobTracing verifies that a trace ring wired into the manager records
// one trace per finished job, with the queued phase and the run phase as
// children of the job root, and that solve spans started inside the task
// nest under job.run.
func TestJobTracing(t *testing.T) {
	ring := obs.NewTraceRing(4)
	m := New(Config{Workers: 1, QueueDepth: 2, Traces: ring})
	defer m.Close(context.Background())

	s := mustSubmit(t, m, func(ctx context.Context) (any, error) {
		_, sp := obs.StartSpan(ctx, "work")
		defer sp.End()
		return "ok", nil
	})
	if _, err := m.Wait(context.Background(), s.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	traces := ring.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("recorded %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if !strings.HasPrefix(tr.Name, "job ") {
		t.Errorf("trace name = %q, want job <id>", tr.Name)
	}
	byName := make(map[string]obs.SpanRecord)
	for _, rec := range tr.Spans {
		byName[rec.Name] = rec
	}
	root, ok := byName["job"]
	if !ok {
		t.Fatalf("missing job root span in %v", tr.Spans)
	}
	if got := root.Attr("job"); got != s.ID {
		t.Errorf("job span job attr = %q, want %q", got, s.ID)
	}
	for _, name := range []string{"job.queued", "job.run"} {
		rec, ok := byName[name]
		if !ok {
			t.Fatalf("missing %s span in %v", name, tr.Spans)
		}
		if rec.Parent != root.ID {
			t.Errorf("%s parent = %d, want job root %d", name, rec.Parent, root.ID)
		}
	}
	work, ok := byName["work"]
	if !ok {
		t.Fatal("task-started span not recorded")
	}
	if work.Parent != byName["job.run"].ID {
		t.Errorf("work parent = %d, want job.run %d", work.Parent, byName["job.run"].ID)
	}
}

// TestJobTracingDisabled keeps the nil-ring fast path honest: no Traces
// config means no tracer is constructed and tasks see no span in their
// context.
func TestJobTracingDisabled(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 1})
	defer m.Close(context.Background())
	s := mustSubmit(t, m, func(ctx context.Context) (any, error) {
		if obs.SpanFromContext(ctx) != nil {
			t.Error("unexpected active span without a trace ring")
		}
		return nil, nil
	})
	if _, err := m.Wait(context.Background(), s.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}
