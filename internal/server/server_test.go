package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"fairtask/internal/assign"
	"fairtask/internal/dataset"
	"fairtask/internal/obs"
)

func testFactory(algorithm string, seed int64) (assign.Assigner, error) {
	switch algorithm {
	case "GTA":
		return assign.GTA{}, nil
	case "MMTA":
		return assign.MMTA{}, nil
	case "LEXIFAIR":
		return assign.Lexifair{}, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", algorithm)
	}
}

func problemCSV(t *testing.T) []byte {
	t.Helper()
	p, err := dataset.GenerateSYN(dataset.SYNConfig{
		Seed: 1, Centers: 2, Tasks: 40, Workers: 8, DeliveryPoints: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(New(testFactory))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestSolveEndpoint(t *testing.T) {
	srv := httptest.NewServer(New(testFactory))
	defer srv.Close()
	body := problemCSV(t)

	resp, err := http.Post(srv.URL+"/solve?alg=GTA&eps=2&seed=3", "text/csv",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Algorithm != "GTA" {
		t.Errorf("algorithm = %q", out.Algorithm)
	}
	if out.Workers != 8 {
		t.Errorf("workers = %d, want 8", out.Workers)
	}
	if out.Difference < 0 || out.Gini < 0 || out.Gini > 1 {
		t.Errorf("metrics out of range: %+v", out)
	}
	if len(out.Routes) == 0 {
		t.Error("no routes returned")
	}
	for _, r := range out.Routes {
		if len(r.Points) == 0 {
			t.Error("route without points")
		}
	}
}

func TestSolveRejectsBadRequests(t *testing.T) {
	srv := httptest.NewServer(New(testFactory))
	defer srv.Close()
	body := problemCSV(t)

	cases := []struct {
		name   string
		method string
		url    string
		body   string
		want   int
	}{
		{"wrong method", http.MethodGet, "/solve", "", http.StatusMethodNotAllowed},
		{"garbage body", http.MethodPost, "/solve", "not,a,problem", http.StatusBadRequest},
		{"unknown alg", http.MethodPost, "/solve?alg=XXX", string(body), http.StatusBadRequest},
		{"bad seed", http.MethodPost, "/solve?seed=abc", string(body), http.StatusBadRequest},
		{"bad eps", http.MethodPost, "/solve?eps=-1", string(body), http.StatusBadRequest},
		{"bad audit", http.MethodPost, "/solve?audit=maybe", string(body), http.StatusBadRequest},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, srv.URL+c.url, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
}

func TestSolveBodyLimit(t *testing.T) {
	h := New(testFactory)
	h.MaxBodyBytes = 64 // far below the problem size
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/solve", "text/csv", bytes.NewReader(problemCSV(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", resp.StatusCode)
	}
	var out struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("413 body is not JSON: %v", err)
	}
	if !strings.Contains(out.Error, "64 bytes") {
		t.Errorf("error message %q should state the limit", out.Error)
	}
}

func TestSolveMethodNotAllowedSetsAllow(t *testing.T) {
	srv := httptest.NewServer(New(testFactory))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
	if got := resp.Header.Get("Allow"); got != http.MethodPost {
		t.Errorf("Allow = %q, want POST", got)
	}
}

// TestMetricsEndpoint round-trips the exposition: before any traffic the
// seeded HTTP families must be present; after a solve the solver families
// must carry non-zero samples.
func TestMetricsEndpoint(t *testing.T) {
	h := New(testFactory)
	h.Recorder = obs.NewMetricsRecorder(h.Registry)
	srv := httptest.NewServer(h)
	defer srv.Close()

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics status = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
			t.Errorf("Content-Type = %q", ct)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	first := scrape()
	for _, name := range []string{
		"fta_http_requests_total", "fta_http_request_seconds",
		"fta_solve_iterations", "fta_vdps_pruned_total",
	} {
		if !strings.Contains(first, "# TYPE "+name+" ") {
			t.Errorf("first scrape missing family %s", name)
		}
	}
	checkExpositionFormat(t, first)

	resp, err := http.Post(srv.URL+"/solve?alg=GTA&eps=2", "text/csv", bytes.NewReader(problemCSV(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d", resp.StatusCode)
	}

	second := scrape()
	for _, sample := range []string{
		`fta_http_requests_total{code="2xx",route="/solve"} 1`,
		`fta_assign_centers_total 2`,
	} {
		if !strings.Contains(second, sample+"\n") {
			t.Errorf("post-solve scrape missing %q in:\n%s", sample, second)
		}
	}
	if !regexp.MustCompile(`fta_vdps_candidates_total [1-9]`).MatchString(second) {
		t.Error("post-solve scrape has zero VDPS candidates")
	}
}

// checkExpositionFormat validates the Prometheus text format line by line:
// comments are HELP/TYPE, samples are `name{labels} value` with a parseable
// float value.
func checkExpositionFormat(t *testing.T, body string) {
	t.Helper()
	sampleRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[+-]Inf|[-+0-9.eE]+)$`)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !sampleRe.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

// TestConcurrentRequests hammers /solve and /metrics together; under -race
// this exercises the registry, middleware and recorder for data races.
func TestConcurrentRequests(t *testing.T) {
	h := New(testFactory)
	h.Recorder = obs.NewMetricsRecorder(h.Registry)
	srv := httptest.NewServer(h)
	defer srv.Close()
	body := problemCSV(t)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				resp, err := http.Post(srv.URL+"/solve?alg=GTA&eps=2", "text/csv", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("solve status = %d", resp.StatusCode)
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				resp, err := http.Get(srv.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if want := `fta_http_requests_total{code="2xx",route="/solve"} 12`; !strings.Contains(string(b), want+"\n") {
		t.Errorf("metrics missing %q after concurrent solves", want)
	}
}

// TestMetricsDisabled checks that a nil Registry turns /metrics into a 404
// and leaves the API functional.
func TestMetricsDisabled(t *testing.T) {
	h := New(testFactory)
	h.Registry = nil
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("metrics with nil registry: status = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz with nil registry: status = %d", resp.StatusCode)
	}
}

// TestSolveLogs checks the structured request and solve log lines.
func TestSolveLogs(t *testing.T) {
	h := New(testFactory)
	var buf syncBuffer
	h.Logger = slog.New(slog.NewJSONHandler(&buf, nil))
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/solve?alg=GTA&eps=2", "text/csv", bytes.NewReader(problemCSV(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var msgs []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var entry struct {
			Msg string `json:"msg"`
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("log line %q is not JSON: %v", line, err)
		}
		msgs = append(msgs, entry.Msg)
	}
	joined := strings.Join(msgs, ",")
	if !strings.Contains(joined, "solve") || !strings.Contains(joined, "http request") {
		t.Errorf("expected solve and http request log entries, got %q", joined)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer; slog handlers may be invoked
// from the server goroutine while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// The HTTP layer must serve the leximin assigner like any other algorithm
// value — the same path fta serve exposes through fairtask.NewAssigner.
func TestSolveEndpointLexifair(t *testing.T) {
	srv := httptest.NewServer(New(testFactory))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/solve?alg=LEXIFAIR&eps=2", "text/csv",
		bytes.NewReader(problemCSV(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Algorithm != "LEXIFAIR" {
		t.Errorf("algorithm = %q", out.Algorithm)
	}
	if len(out.Routes) == 0 {
		t.Error("no routes returned")
	}
}
