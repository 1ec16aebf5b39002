package server

import (
	"context"
	"errors"
	"net/http"
	"time"

	"fairtask/internal/jobs"
)

// JobResponse is the JSON representation of a solve job returned by the
// /jobs endpoints.
type JobResponse struct {
	// ID identifies the job; poll GET /jobs/{id} with it.
	ID string `json:"id"`
	// State is queued, running, done, failed or canceled.
	State string `json:"state"`
	// SubmittedAt/StartedAt/FinishedAt are lifecycle timestamps; the latter
	// two are omitted until the transition happens.
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// Error is the failure or cancellation cause for failed/canceled jobs.
	Error string `json:"error,omitempty"`
	// Attempts is how many times the solve ran, counting backoff retries;
	// omitted for jobs that have not started.
	Attempts int `json:"attempts,omitempty"`
	// Result is the solve outcome, present only in state done.
	Result *SolveResponse `json:"result,omitempty"`
}

// jobResponse converts a manager snapshot to the wire shape.
func jobResponse(s jobs.Snapshot) JobResponse {
	resp := JobResponse{
		ID:          s.ID,
		State:       string(s.State),
		SubmittedAt: s.SubmittedAt,
	}
	if !s.StartedAt.IsZero() {
		t := s.StartedAt
		resp.StartedAt = &t
	}
	if !s.FinishedAt.IsZero() {
		t := s.FinishedAt
		resp.FinishedAt = &t
	}
	if s.Err != nil {
		resp.Error = s.Err.Error()
	}
	resp.Attempts = s.Attempts
	if sr, ok := s.Result.(*SolveResponse); ok {
		resp.Result = sr
	}
	return resp
}

// jobSubmit handles POST /jobs: validate exactly like the synchronous
// /solve, then enqueue the solve and answer 202 with the job's identity.
// Admission failures map to 429 (queue/store full) or 503 (draining), so
// load balancers can shed or fail over.
func (h *Handler) jobSubmit(w http.ResponseWriter, r *http.Request) {
	if h.Jobs == nil {
		errorJSON(w, http.StatusServiceUnavailable, "job API disabled")
		return
	}
	req := h.parseSolveRequest(w, r)
	if req == nil {
		return
	}
	snap, err := h.Jobs.Submit(func(ctx context.Context) (any, error) {
		return h.runSolve(ctx, req)
	})
	switch {
	case errors.Is(err, jobs.ErrQueueFull) || errors.Is(err, jobs.ErrStoreFull):
		w.Header().Set("Retry-After", "1")
		errorJSON(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, jobs.ErrNotAccepting):
		errorJSON(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		errorJSON(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Location", "/jobs/"+snap.ID)
	reply(w, http.StatusAccepted, jobResponse(snap))
}

// jobGet handles GET /jobs/{id}.
func (h *Handler) jobGet(w http.ResponseWriter, r *http.Request) {
	if h.Jobs == nil {
		errorJSON(w, http.StatusServiceUnavailable, "job API disabled")
		return
	}
	snap, err := h.Jobs.Get(r.PathValue("id"))
	if err != nil {
		errorJSON(w, http.StatusNotFound, err.Error())
		return
	}
	reply(w, http.StatusOK, jobResponse(snap))
}

// jobCancel handles DELETE /jobs/{id}: request cancellation and return the
// post-request state. Canceling a terminal job is a no-op, not an error.
func (h *Handler) jobCancel(w http.ResponseWriter, r *http.Request) {
	if h.Jobs == nil {
		errorJSON(w, http.StatusServiceUnavailable, "job API disabled")
		return
	}
	snap, err := h.Jobs.Cancel(r.PathValue("id"))
	if err != nil {
		errorJSON(w, http.StatusNotFound, err.Error())
		return
	}
	reply(w, http.StatusOK, jobResponse(snap))
}

// ReadyResponse is the JSON body of GET /readyz.
type ReadyResponse struct {
	// Ready is true while the service accepts new work.
	Ready bool `json:"ready"`
	// Jobs reports the queue's admission state; omitted when the job API is
	// disabled.
	Jobs *jobs.Stats `json:"jobs,omitempty"`
}

// ready handles GET /readyz: 200 while accepting work, 503 once draining has
// begun, so orchestrators stop routing new requests during shutdown. With
// the job API disabled, a running process is simply ready.
func (h *Handler) ready(w http.ResponseWriter, _ *http.Request) {
	resp := ReadyResponse{Ready: true}
	if h.Jobs != nil {
		st := h.Jobs.Stats()
		resp.Ready = st.Accepting
		resp.Jobs = &st
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	reply(w, status, resp)
}
