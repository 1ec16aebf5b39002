package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"fairtask/internal/jobs"
)

// fuzzBodyLimit is FuzzServe's request body limit. A problem CSV that fits
// in it has about a dozen points, so no solve runs long, and longer bodies
// take the limit path.
const fuzzBodyLimit = 256

// The routes FuzzServe drives, selected by its route input modulo 4.
const (
	fuzzSolve          = iota // POST /solve
	fuzzJobs                  // POST /jobs, then GET /jobs/{id} once the job is done
	fuzzStreamInstance        // POST /stream/instance
	fuzzStreamEvents          // POST /stream/events on fuzzStreamCSV
)

// fuzzStreamCSV is the instance FuzzServe's event route posts first.
const fuzzStreamCSV = `meta,5,,,,euclidean,
center,0,,0,0,,
point,0,1,1,0,,
point,0,2,0,1,,
task,0,1,1,,5,2
task,0,2,2,,5,3
worker,0,1,0,0,2,
worker,0,2,1,1,2,
`

// FuzzServe drives the served HTTP boundary with an arbitrary query and
// body. No reply may be a 5xx, every 2xx reply must be non-empty JSON, and
// a body over the limit must get 413 unless its query was rejected first.
func FuzzServe(f *testing.F) {
	problems := []string{
		fuzzStreamCSV,
		// Payoff +Inf: the worker stands at the center, and the point is
		// 1e-320 away, so its route takes about 1e-321 h.
		"meta,5,,,,euclidean,\ncenter,0,,0,0,,\npoint,0,1,1e-320,0,,\ntask,0,1,1,,10,100\nworker,0,1,0,0,1,\n",
		// An infinite reward, and two finite rewards whose sum is not.
		"meta,5,,,,euclidean,\ncenter,0,,0,0,,\npoint,0,1,1,0,,\ntask,0,1,1,,10,Inf\nworker,0,1,0,0,1,\n",
		"meta,5,,,,euclidean,\ncenter,0,,0,0,,\npoint,0,1,1,0,,\ntask,0,1,1,,10,1e308\ntask,0,2,1,,10,1e308\nworker,0,1,0,0,1,\n",
		// Two centers that both have a point 1, records grouped by kind.
		"meta,5,,,,euclidean,\ncenter,0,,0,0,,\ncenter,1,,10,10,,\npoint,0,1,1,0,,\npoint,1,1,11,10,,\n" +
			"task,0,100,1,,5,2\ntask,1,200,1,,5,3\nworker,0,1,0,1,2,0\nworker,1,1,10,11,2,0\n",
		// Over the limit.
		fuzzStreamCSV + strings.Repeat("worker,0,9,1,1,2,\n", 10),
	}
	for _, p := range problems {
		for _, route := range []uint8{fuzzSolve, fuzzJobs, fuzzStreamInstance} {
			f.Add(route, "alg=FGT&eps=2&seed=3", []byte(p))
		}
		f.Add(uint8(fuzzSolve), "alg=GTA&audit=1", []byte(p))
	}
	for _, events := range []string{
		`[{"seq":1,"kind":"reward_changed","task_id":1,"reward":4},{"seq":2,"kind":"task_arrived","task_id":3,"point":1,"expiry":5,"reward":1}]`,
		`[{"seq":1,"kind":"worker_offline","worker_id":2}]`,
		`[{"seq":1,"kind":`,
		`{"not":"an array"}`,
		"[]" + strings.Repeat(" ", fuzzBodyLimit),
	} {
		f.Add(uint8(fuzzStreamEvents), "", []byte(events))
	}

	f.Fuzz(func(t *testing.T, route uint8, query string, body []byte) {
		h := newServerHandler(nil)
		h.MaxBodyBytes = fuzzBodyLimit
		serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
			req := httptest.NewRequest(method, path, bytes.NewReader(body))
			req.URL.RawQuery = query
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			checkReply(t, method+" "+path, rr, len(body) > fuzzBodyLimit)
			return rr
		}
		switch route % 4 {
		case fuzzSolve:
			serve(http.MethodPost, "/solve", body)
		case fuzzJobs:
			m := jobs.New(jobs.Config{Workers: 1, QueueDepth: 1})
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			defer m.Close(ctx)
			h.Jobs = m
			rr := serve(http.MethodPost, "/jobs", body)
			if rr.Code != http.StatusAccepted {
				return
			}
			var job struct{ ID string }
			if err := json.Unmarshal(rr.Body.Bytes(), &job); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Wait(ctx, job.ID); err != nil {
				t.Fatal(err)
			}
			serve(http.MethodGet, "/jobs/"+job.ID, nil)
		case fuzzStreamInstance:
			serve(http.MethodPost, "/stream/instance", body)
		case fuzzStreamEvents:
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/stream/instance", strings.NewReader(fuzzStreamCSV)))
			if rr.Code != http.StatusOK {
				t.Fatalf("POST /stream/instance: %d %s", rr.Code, rr.Body)
			}
			serve(http.MethodPost, "/stream/events", body)
		}
	})
}

// checkReply fails t unless rr is below 500, a 2xx reply is non-empty JSON,
// and an over-limit body got 413 or its query was rejected before the body
// was read.
func checkReply(t *testing.T, what string, rr *httptest.ResponseRecorder, overLimit bool) {
	t.Helper()
	body := rr.Body.Bytes()
	switch {
	case rr.Code >= 500:
		t.Fatalf("%s: %d %s", what, rr.Code, body)
	case rr.Code < 300 && !json.Valid(body):
		t.Fatalf("%s: %d with a body that is not JSON: %q", what, rr.Code, body)
	case overLimit && rr.Code != http.StatusRequestEntityTooLarge && !queryRejected(rr):
		t.Fatalf("%s: over-limit body got %d %s, want 413", what, rr.Code, body)
	}
}

// queryRejected reports whether rr is the 400 a solving endpoint gives a
// malformed seed, eps or audit parameter. Each rejection names its
// parameter as "bad <name>", and all are made before the body is read.
func queryRejected(rr *httptest.ResponseRecorder) bool {
	var e struct{ Error string }
	if rr.Code != http.StatusBadRequest || json.Unmarshal(rr.Body.Bytes(), &e) != nil {
		return false
	}
	rest, ok := strings.CutPrefix(e.Error, "bad ")
	param, _, _ := strings.Cut(rest, ":")
	return ok && slices.Contains([]string{"seed", "eps", "audit"}, param)
}
