package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fairtask/internal/jobs"
	"fairtask/internal/stream"
)

// Problems whose payoffs are not finite. In infPayoffCSV the worker stands
// at the center and the one point is 1e-320 away, so its route takes about
// 1e-321 h and pays +Inf (Definition 7). The other two have an infinite
// reward, or two finite rewards whose sum is not.
const (
	infPayoffCSV      = "meta,5,,,,euclidean,\ncenter,0,,0,0,,\npoint,0,1,1e-320,0,,\ntask,0,1,1,,10,100\nworker,0,1,0,0,1,\n"
	infRewardCSV      = "meta,5,,,,euclidean,\ncenter,0,,0,0,,\npoint,0,1,1,0,,\ntask,0,1,1,,10,Inf\nworker,0,1,0,0,1,\n"
	rewardOverflowCSV = "meta,5,,,,euclidean,\ncenter,0,,0,0,,\npoint,0,1,1,0,,\ntask,0,1,1,,10,1e308\ntask,0,2,1,,10,1e308\nworker,0,1,0,0,1,\n"
)

// do serves one request in process and returns the recorded reply.
func do(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rr
}

// wantError checks that rr is a JSON error reply with the given status whose
// message contains substr.
func wantError(t *testing.T, what string, rr *httptest.ResponseRecorder, status int, substr string) {
	t.Helper()
	var e struct{ Error string }
	if err := json.Unmarshal(rr.Body.Bytes(), &e); rr.Code != status || err != nil ||
		!strings.Contains(e.Error, substr) || rr.Header().Get("Content-Type") != "application/json" {
		t.Errorf("%s: %d %q (Content-Type %q), want %d with an error containing %q",
			what, rr.Code, rr.Body.String(), rr.Header().Get("Content-Type"), status, substr)
	}
}

// TestReplyThatDoesNotEncodeIs422 pins that a reply encoding/json rejects
// is a 422 naming the cause, never a 200 with an empty body.
func TestReplyThatDoesNotEncodeIs422(t *testing.T) {
	h, m := newJobServer(t, jobs.Config{Workers: 1, QueueDepth: 4})
	const cause = "reply does not encode: json: unsupported value: +Inf"

	wantError(t, "POST /solve", do(h, http.MethodPost, "/solve?alg=GTA", infPayoffCSV),
		http.StatusUnprocessableEntity, cause)

	rr := do(h, http.MethodPost, "/jobs?alg=GTA", infPayoffCSV)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", rr.Code, rr.Body)
	}
	jr := decodeJob(t, rr.Body)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, jr.ID); err != nil {
		t.Fatal(err)
	}
	wantError(t, "GET /jobs/{id}", do(h, http.MethodGet, "/jobs/"+jr.ID, ""),
		http.StatusUnprocessableEntity, cause)

	// The engine is installed before its reply is encoded, so the state
	// read that follows fails to encode the same way.
	wantError(t, "POST /stream/instance", do(h, http.MethodPost, "/stream/instance", infPayoffCSV),
		http.StatusUnprocessableEntity, cause)
	wantError(t, "GET /stream/state", do(h, http.MethodGet, "/stream/state", ""),
		http.StatusUnprocessableEntity, cause)
}

// TestStreamInstanceUnknownAlgorithm pins that /stream/instance answers an
// algorithm the engine does not run with 400, as /solve does.
func TestStreamInstanceUnknownAlgorithm(t *testing.T) {
	csv, _ := streamCSV(t, 35)
	h := New(testFactory)
	for _, alg := range []string{"GTA", "XXX"} {
		wantError(t, "alg="+alg, do(h, http.MethodPost, "/stream/instance?alg="+alg, string(csv)),
			http.StatusBadRequest, `stream: unknown algorithm "`+alg+`"`)
	}
}

// TestNaNEpsRejected pins that eps=NaN is a bad eps on every solving
// endpoint; it used to pass the eps > 0 check and prune every leg.
func TestNaNEpsRejected(t *testing.T) {
	h, _ := newJobServer(t, jobs.Config{Workers: 1, QueueDepth: 4})
	csv, _ := streamCSV(t, 36)
	for _, target := range []string{"/solve?alg=GTA&eps=NaN", "/jobs?alg=GTA&eps=NaN", "/stream/instance?eps=NaN"} {
		wantError(t, target, do(h, http.MethodPost, target, string(csv)), http.StatusBadRequest, "bad eps")
	}
}

// TestNonFiniteRewardsRejected pins that a reward of Inf, or rewards whose
// sum overflows, are rejected when the problem CSV is decoded.
func TestNonFiniteRewardsRejected(t *testing.T) {
	h := New(testFactory)
	for _, body := range []string{infRewardCSV, rewardOverflowCSV} {
		for _, target := range []string{"/solve?alg=GTA", "/stream/instance"} {
			wantError(t, target, do(h, http.MethodPost, target, body), http.StatusBadRequest, "bad problem CSV: ")
		}
	}
}

// TestBodyLimitHoldsWhenDecodeStopsEarly pins that a body over the limit
// is a 413 even when its decoder stops before the limit: at a syntax error,
// or after the one JSON value /stream/events reads.
func TestBodyLimitHoldsWhenDecodeStopsEarly(t *testing.T) {
	h := New(testFactory)
	csv, in := streamCSV(t, 37)
	if rr := do(h, http.MethodPost, "/stream/instance", string(csv)); rr.Code != http.StatusOK {
		t.Fatalf("POST /stream/instance: %d %s", rr.Code, rr.Body)
	}
	events, err := json.Marshal([]stream.Delta{
		{Seq: 1, Kind: stream.RewardChanged, TaskID: in.Points[0].Tasks[0].ID, Reward: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.MaxBodyBytes = 256
	pad := strings.Repeat(" ", 300)
	const cause = "request body exceeds 256 bytes"
	wantError(t, "CSV syntax error", do(h, http.MethodPost, "/solve?alg=GTA", "junk\n"+pad),
		http.StatusRequestEntityTooLarge, cause)
	wantError(t, "JSON syntax error", do(h, http.MethodPost, "/stream/events", "{x"+pad),
		http.StatusRequestEntityTooLarge, cause)
	wantError(t, "padded delta array", do(h, http.MethodPost, "/stream/events", string(events)+pad),
		http.StatusRequestEntityTooLarge, cause)
	if rr := do(h, http.MethodGet, "/stream/state", ""); !bytes.Contains(rr.Body.Bytes(), []byte(`"seq":0,`)) {
		t.Errorf("the over-limit batch was applied: %s", rr.Body)
	}
	// At the limit, trailing bytes after the array are still ignored.
	body := string(events) + pad[:256-len(events)]
	if rr := do(h, http.MethodPost, "/stream/events", body); rr.Code != http.StatusOK {
		t.Errorf("delta array padded to the limit: %d %s", rr.Code, rr.Body)
	}
}
