package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fairtask/internal/assign"
	"fairtask/internal/game"
	"fairtask/internal/jobs"
	"fairtask/internal/obs"
)

// newJobServer builds a handler with the async job API enabled and returns
// it with its manager for direct inspection. Cleanup drains the manager.
func newJobServer(t *testing.T, cfg jobs.Config) (*Handler, *jobs.Manager) {
	t.Helper()
	h := New(testFactory)
	cfg.Metrics = obs.NewJobsMetrics(h.Registry)
	m := jobs.New(cfg)
	h.Jobs = m
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	return h, m
}

func decodeJob(t *testing.T, r io.Reader) JobResponse {
	t.Helper()
	var jr JobResponse
	if err := json.NewDecoder(r).Decode(&jr); err != nil {
		t.Fatalf("decode job response: %v", err)
	}
	return jr
}

// pollJob polls GET /jobs/{id} until the job is terminal.
func pollJob(t *testing.T, base, id string) JobResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		jr := decodeJob(t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d", id, resp.StatusCode)
		}
		switch jr.State {
		case "done", "failed", "canceled":
			return jr
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobResponse{}
}

// TestJobLifecycleE2E drives the documented flow: submit a solve, poll the
// job, read the result.
func TestJobLifecycleE2E(t *testing.T) {
	h, _ := newJobServer(t, jobs.Config{Workers: 2, QueueDepth: 8})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/jobs?alg=GTA&eps=2", "text/csv", bytes.NewReader(problemCSV(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /jobs: status %d, body %s", resp.StatusCode, b)
	}
	jr := decodeJob(t, resp.Body)
	if jr.ID == "" || jr.State != "queued" {
		t.Fatalf("submit response = %+v, want queued with an id", jr)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+jr.ID {
		t.Fatalf("Location = %q, want /jobs/%s", loc, jr.ID)
	}

	fin := pollJob(t, srv.URL, jr.ID)
	if fin.State != "done" {
		t.Fatalf("final state = %s (error %q), want done", fin.State, fin.Error)
	}
	if fin.Result == nil || fin.Result.Algorithm != "GTA" || fin.Result.Workers == 0 {
		t.Fatalf("result = %+v, want a populated GTA SolveResponse", fin.Result)
	}
	if fin.StartedAt == nil || fin.FinishedAt == nil {
		t.Fatalf("terminal job missing timestamps: %+v", fin)
	}
}

// slowSolver blocks inside Assign until its context is canceled, so tests
// can hold a job in the running state deterministically.
type slowSolver struct{ started chan string }

func (slowSolver) Name() string { return "SLOW" }

func (s slowSolver) Assign(ctx context.Context, _ *game.State) (*game.Result, error) {
	select {
	case s.started <- "": // signal once; later centers skip via ctx
	default:
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestJobCancelE2E submits a solve that never finishes on its own, cancels
// it over HTTP, and watches it reach the canceled state.
func TestJobCancelE2E(t *testing.T) {
	started := make(chan string, 1)
	h := New(func(string, int64) (assign.Assigner, error) {
		return slowSolver{started: started}, nil
	})
	m := jobs.New(jobs.Config{Workers: 1, QueueDepth: 4})
	h.Jobs = m
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/jobs?alg=SLOW", "text/csv", bytes.NewReader(problemCSV(t)))
	if err != nil {
		t.Fatal(err)
	}
	jr := decodeJob(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", resp.StatusCode)
	}
	<-started // the solver is now blocked inside Assign

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+jr.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /jobs/%s: status %d", jr.ID, dresp.StatusCode)
	}

	fin := pollJob(t, srv.URL, jr.ID)
	if fin.State != "canceled" {
		t.Fatalf("final state = %s, want canceled", fin.State)
	}
	if fin.Result != nil {
		t.Fatal("canceled job carries a result")
	}
}

// TestJobQueueFull429 saturates the queue through the API and checks the
// 429 + Retry-After contract.
func TestJobQueueFull429(t *testing.T) {
	started := make(chan string, 1)
	h := New(func(string, int64) (assign.Assigner, error) {
		return slowSolver{started: started}, nil
	})
	m := jobs.New(jobs.Config{Workers: 1, QueueDepth: 1})
	h.Jobs = m
	t.Cleanup(func() { m.Close(context.Background()) })
	srv := httptest.NewServer(h)
	defer srv.Close()

	post := func() *http.Response {
		resp, err := http.Post(srv.URL+"/jobs?alg=SLOW", "text/csv", bytes.NewReader(problemCSV(t)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	var ids []string
	r1 := post() // occupies the worker
	ids = append(ids, decodeJob(t, r1.Body).ID)
	r1.Body.Close()
	<-started
	r2 := post() // fills the single queue slot
	ids = append(ids, decodeJob(t, r2.Body).ID)
	r2.Body.Close()

	r3 := post()
	defer r3.Body.Close()
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST /jobs on full queue: status %d, want 429", r3.StatusCode)
	}
	if r3.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	// Cancel the stuck jobs so Close's drain is quick.
	for _, id := range ids {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

func TestJobNotFound(t *testing.T) {
	h, _ := newJobServer(t, jobs.Config{Workers: 1, QueueDepth: 1})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/jobs/doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /jobs/doesnotexist: status %d, want 404", resp.StatusCode)
	}
}

func TestJobAPIDisabled(t *testing.T) {
	srv := httptest.NewServer(New(testFactory)) // no Jobs manager
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/jobs?alg=GTA", "text/csv", bytes.NewReader(problemCSV(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /jobs without manager: status %d, want 503", resp.StatusCode)
	}
	// /readyz still reports ready: the process serves synchronous solves.
	rresp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /readyz without manager: status %d, want 200", rresp.StatusCode)
	}
}

func TestReadyzReflectsDrain(t *testing.T) {
	h, m := newJobServer(t, jobs.Config{Workers: 1, QueueDepth: 2})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !ready.Ready || ready.Jobs == nil {
		t.Fatalf("readyz before drain: status %d body %+v", resp.StatusCode, ready)
	}
	if ready.Jobs.QueueCapacity != 2 {
		t.Fatalf("readyz queue capacity = %d, want 2", ready.Jobs.QueueCapacity)
	}

	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: status %d, want 503", resp.StatusCode)
	}
}

// TestJobSubmitValidatesLikeSolve checks the async path reuses the sync
// path's validation rather than deferring failures into the job.
func TestJobSubmitValidatesLikeSolve(t *testing.T) {
	h, _ := newJobServer(t, jobs.Config{Workers: 1, QueueDepth: 2})
	srv := httptest.NewServer(h)
	defer srv.Close()

	cases := []struct {
		url  string
		body string
	}{
		{srv.URL + "/jobs?alg=NOPE", string(problemCSV(t))},
		{srv.URL + "/jobs?alg=GTA&eps=-1", string(problemCSV(t))},
		{srv.URL + "/jobs?alg=GTA", "not,a,problem\ncsv"},
	}
	for _, tc := range cases {
		resp, err := http.Post(tc.url, "text/csv", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", tc.url, resp.StatusCode)
		}
	}
	// Nothing should have been admitted.
	if st := h.Jobs.Stats(); st.Stored != 0 {
		t.Errorf("invalid submissions stored %d jobs, want 0", st.Stored)
	}
}

// TestSolveTimeoutReturns503 bounds the synchronous path: with a tiny
// server-side solve timeout, a slow solve answers 503 instead of hanging.
func TestSolveTimeoutReturns503(t *testing.T) {
	started := make(chan string, 1)
	h := New(func(string, int64) (assign.Assigner, error) {
		return slowSolver{started: started}, nil
	})
	h.SolveTimeout = 30 * time.Millisecond
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/solve?alg=SLOW", "text/csv", bytes.NewReader(problemCSV(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /solve with timeout: status %d body %s, want 503", resp.StatusCode, b)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body["error"], "deadline") {
		t.Fatalf("503 body = %v, want a deadline message", body)
	}
}

// TestJobsMetricsExposed checks the job counters flow into /metrics.
func TestJobsMetricsExposed(t *testing.T) {
	h, _ := newJobServer(t, jobs.Config{Workers: 1, QueueDepth: 4})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/jobs?alg=GTA&eps=2", "text/csv", bytes.NewReader(problemCSV(t)))
	if err != nil {
		t.Fatal(err)
	}
	jr := decodeJob(t, resp.Body)
	resp.Body.Close()
	pollJob(t, srv.URL, jr.ID)

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"fta_jobs_submitted_total 1",
		`fta_jobs_total{state="done"} 1`,
		"fta_jobs_queue_depth 0",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
