package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"fairtask"
	"fairtask/internal/dataset"
	"fairtask/internal/obs"
)

func TestDebugTracesAfterSolve(t *testing.T) {
	srv := httptest.NewServer(New(testFactory))
	defer srv.Close()
	body := problemCSV(t)

	for i := 0; i < 3; i++ {
		resp, err := http.Post(srv.URL+"/solve?alg=GTA&eps=2", "text/csv",
			bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve status = %d", resp.StatusCode)
		}
	}

	resp, err := http.Get(srv.URL + "/debug/traces?spans=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traces status = %d", resp.StatusCode)
	}
	var out TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Total != 3 {
		t.Errorf("total = %d, want 3", out.Total)
	}
	if len(out.Traces) != 3 {
		t.Fatalf("retained = %d, want 3", len(out.Traces))
	}
	tr := out.Traces[0]
	if tr.Name != "POST /solve" {
		t.Errorf("trace name = %q", tr.Name)
	}
	if tr.SpanCount == 0 || len(tr.Spans) != tr.SpanCount {
		t.Errorf("span count %d vs %d raw spans", tr.SpanCount, len(tr.Spans))
	}
	phases := make(map[string]bool)
	for _, ph := range tr.Phases {
		phases[ph.Name] = true
		if ph.SelfMS < 0 || ph.TotalMS < ph.SelfMS {
			t.Errorf("phase %s: self %v total %v", ph.Name, ph.SelfMS, ph.TotalMS)
		}
	}
	for _, want := range []string{"POST /solve", "assign", "center.solve"} {
		if !phases[want] {
			t.Errorf("breakdown missing phase %q (got %v)", want, tr.Phases)
		}
	}

	// ?n= limits the retained listing without affecting the total.
	resp2, err := http.Get(srv.URL + "/debug/traces?n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var limited TracesResponse
	if err := json.NewDecoder(resp2.Body).Decode(&limited); err != nil {
		t.Fatal(err)
	}
	if limited.Total != 3 || len(limited.Traces) != 1 {
		t.Errorf("n=1: total %d retained %d, want 3/1", limited.Total, len(limited.Traces))
	}
	if len(limited.Traces[0].Spans) != 0 {
		t.Error("spans included without ?spans=1")
	}
}

func TestDebugTracesDisabled(t *testing.T) {
	h := New(testFactory)
	h.Traces = nil
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled tracing status = %d, want 404", resp.StatusCode)
	}
}

// debugTracesQueries are the GET /debug/traces forms the round-trip tests
// compare: with and without spans=1, and n below, at and above the number
// retained, negative and malformed.
var debugTracesQueries = []string{"", "?spans=1", "?n=2", "?spans=1&n=1", "?n=0", "?n=-1", "?n=99", "?n=x", "?spans=0&n=3"}

// serveTraces adds traces to a fresh handler's ring and returns its
// GET /debug/traces body for each of debugTracesQueries.
func serveTraces(t *testing.T, traces []obs.Trace) []string {
	t.Helper()
	h := New(testFactory)
	h.Traces = obs.NewTraceRing(len(traces))
	for _, tr := range traces {
		h.Traces.Add(tr)
	}
	bodies := make([]string, len(debugTracesQueries))
	for i, q := range debugTracesQueries {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/traces"+q, nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("GET /debug/traces%s: status %d", q, rr.Code)
		}
		bodies[i] = rr.Body.String()
	}
	return bodies
}

// fixedTraces are deterministic traces for the golden body: a job trace,
// a small multi-center solve and synthetic edge cases.
func fixedTraces() []obs.Trace {
	at := time.Unix(1700000000, 0).UTC()
	solve := obs.Trace{Name: "POST /solve", Start: at, Spans: []obs.SpanRecord{
		{ID: 1, Name: "POST /solve", Start: 826, Duration: 4067194, Attrs: []obs.Attr{{Key: "algorithm", Value: "IEGT"}}},
		{ID: 2, Parent: 1, Name: "assign", Start: 3348, Duration: 3924736,
			Attrs: []obs.Attr{{Key: "centers", Value: "2"}, {Key: "algorithm", Value: "IEGT"}}},
		{ID: 3, Parent: 2, Name: "center.solve", Start: 16374, Duration: 263418, Attrs: []obs.Attr{{Key: "center", Value: "1"}}},
		{ID: 4, Parent: 2, Name: "center.solve", Start: 18923, Duration: 340469, Attrs: []obs.Attr{{Key: "center", Value: "0"}}},
		{ID: 5, Parent: 3, Name: "vdps.generate", Start: 22035, Duration: 126176},
		{ID: 6, Parent: 4, Name: "vdps.generate", Start: 32053, Duration: 158177},
		{ID: 7, Parent: 3, Name: "round", Start: 227317, Duration: 2339, Attrs: []obs.Attr{{Key: "i", Value: "1"}}},
		{ID: 8, Parent: 4, Name: "round", Start: 230131, Duration: 926, Attrs: []obs.Attr{{Key: "i", Value: "1"}}},
	}}
	job := obs.Trace{Name: "job d1f0ab12e34c5678", Start: at.Add(time.Second), Spans: []obs.SpanRecord{
		{ID: 1, Name: "job", Duration: 9000000, Attrs: []obs.Attr{{Key: "job", Value: "d1f0ab12e34c5678"}}},
		{ID: 2, Parent: 1, Name: "job.queued", Duration: 2000000},
		{ID: 3, Parent: 1, Name: "job.run", Start: 2000000, Duration: 6500000},
	}}
	edge := obs.Trace{Name: "edge cases", Spans: []obs.SpanRecord{
		{ID: 1<<40 + 1, Name: "wide", Start: 1<<33 + 7, Duration: 1 << 35, Attrs: []obs.Attr{
			{Key: "k", Value: ""}, {Key: "k", Value: "Zürich → 東京"}, {Key: "bad", Value: "\xff\xfe"},
		}},
		{ID: 2, Parent: 1<<40 + 1, Name: "early", Start: -20, Duration: 3},
	}}
	return []obs.Trace{solve, {Name: "empty", Start: at}, job, edge}
}

// TestDebugTracesRoundTrip checks that GET /debug/traces serves what was
// added: every body equals the one rendered from the added traces
// themselves, for a real traced 4-center solve with concurrent centers as
// well as the fixed traces.
func TestDebugTracesRoundTrip(t *testing.T) {
	p, err := dataset.GenerateSYN(dataset.SYNConfig{
		Seed: 1, Centers: 4, Tasks: 200, Workers: 24, DeliveryPoints: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer()
	root := tracer.Root("POST /solve")
	opt := fairtask.Options{Algorithm: fairtask.AlgIEGT, Seed: 1, Parallelism: 4, Audit: true,
		VDPS: fairtask.VDPSOptions{Epsilon: 2}}
	if _, err := fairtask.SolveProblemContext(obs.ContextWithSpan(context.Background(), root), p, opt); err != nil {
		t.Fatal(err)
	}
	root.End()
	traces := append(fixedTraces(), tracer.Collect("POST /solve"))

	got := serveTraces(t, traces)
	newest := make([]obs.Trace, len(traces))
	for i, tr := range traces {
		newest[len(traces)-1-i] = tr
	}
	for i, q := range debugTracesQueries {
		req := httptest.NewRequest(http.MethodGet, "/debug/traces"+q, nil)
		n, err := strconv.Atoi(req.URL.Query().Get("n"))
		if err != nil || n < 0 || n > len(newest) {
			n = len(newest)
		}
		withSpans, _ := strconv.ParseBool(req.URL.Query().Get("spans"))
		rr := httptest.NewRecorder()
		writeTraces(rr, uint64(len(traces)), newest[:n], withSpans)
		if got[i] != rr.Body.String() {
			t.Errorf("GET /debug/traces%s:\n got %.400s\nwant %.400s", q, got[i], rr.Body.String())
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/debug_traces.golden")

// TestDebugTracesGolden pins the GET /debug/traces bodies of fixedTraces
// to the golden file, written when the ring kept every trace as added.
func TestDebugTracesGolden(t *testing.T) {
	var out strings.Builder
	for i, body := range serveTraces(t, fixedTraces()) {
		fmt.Fprintf(&out, "GET /debug/traces%s\n%s", debugTracesQueries[i], body)
	}
	const golden = "testdata/debug_traces.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("GET /debug/traces bodies differ from %s:\n%s", golden, out.String())
	}
}
