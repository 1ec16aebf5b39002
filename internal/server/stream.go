package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"fairtask/internal/dataset"
	"fairtask/internal/obs"
	"fairtask/internal/stream"
	"fairtask/internal/vdps"
)

// StreamStateResponse is the JSON body of GET /stream/state, also returned
// by POST /stream/instance after the initial solve.
type StreamStateResponse struct {
	Algorithm  string  `json:"algorithm"`
	Seq        uint64  `json:"seq"`
	Applied    uint64  `json:"applied"`
	Workers    int     `json:"workers"`
	Tasks      int     `json:"tasks"`
	Assigned   int     `json:"assigned"`
	Difference float64 `json:"payoff_difference"`
	Average    float64 `json:"average_payoff"`
	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
	Degraded   string  `json:"degraded,omitempty"`
}

// StreamApplyResponse is the JSON body of POST /stream/events.
type StreamApplyResponse struct {
	Seq            uint64  `json:"seq"`
	Applied        int     `json:"applied"`
	Resolve        string  `json:"resolve"`
	WorkersTouched int     `json:"workers_touched"`
	Difference     float64 `json:"payoff_difference"`
	Average        float64 `json:"average_payoff"`
	Iterations     int     `json:"iterations"`
	Converged      bool    `json:"converged"`
	Degraded       string  `json:"degraded,omitempty"`
	AuditOK        *bool   `json:"audit_ok,omitempty"`
	ElapsedMS      float64 `json:"elapsed_ms"`
}

// streamInstance handles POST /stream/instance: a single-center problem CSV
// creates (or replaces) the streaming engine, cold-solving it once; every
// later delta is applied incrementally via POST /stream/events.
func (h *Handler) streamInstance(w http.ResponseWriter, r *http.Request) {
	p, ok := parseSolveParams(w, r.URL.Query())
	if !ok {
		return
	}
	prob, ok := readBody(h, w, r, "bad problem CSV: ", dataset.ReadCSV)
	if !ok {
		return
	}
	if len(prob.Instances) != 1 {
		errorJSON(w, http.StatusBadRequest,
			fmt.Sprintf("streaming serves one distribution center, got %d", len(prob.Instances)))
		return
	}

	opt := stream.Options{
		Algorithm: stream.Algorithm(p.alg),
		VDPS:      vdps.Options{Epsilon: p.eps},
		Degrade:   h.Degrade,
		Retry:     h.retryPolicy(),
		Metrics:   obs.NewStreamMetrics(h.Registry),
		Recorder:  h.Recorder,
	}
	opt.Game.Seed, opt.Evo.Seed = p.seed, p.seed
	eng, err := stream.New(r.Context(), &prob.Instances[0], opt)
	if errors.Is(err, stream.ErrUnknownAlgorithm) {
		errorJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	if err != nil {
		errorJSON(w, http.StatusUnprocessableEntity, "stream init failed: "+err.Error())
		return
	}

	h.streamMu.Lock()
	h.stream = eng
	snap := eng.Snapshot()
	h.streamMu.Unlock()
	reply(w, http.StatusOK, stateResponse(snap))
}

// streamEvents handles POST /stream/events: a JSON array of deltas applied
// as one atomic batch. Stale or duplicate sequence numbers answer 409 with
// the whole batch rejected and no state changed.
func (h *Handler) streamEvents(w http.ResponseWriter, r *http.Request) {
	ds, ok := readBody(h, w, r, "bad event JSON: ", decodeDeltas)
	if !ok {
		return
	}

	h.streamMu.Lock()
	eng := h.stream
	if eng == nil {
		h.streamMu.Unlock()
		errorJSON(w, http.StatusNotFound, "no streaming instance; POST /stream/instance first")
		return
	}
	res, err := eng.ApplyAll(r.Context(), ds)
	h.streamMu.Unlock()
	if err != nil {
		switch {
		case errors.Is(err, stream.ErrStaleSeq):
			errorJSON(w, http.StatusConflict, err.Error())
		case r.Context().Err() != nil:
			errorJSON(w, http.StatusServiceUnavailable, "stream apply aborted: "+r.Context().Err().Error())
		default:
			errorJSON(w, http.StatusUnprocessableEntity, err.Error())
		}
		return
	}
	resp := StreamApplyResponse{
		Seq:            res.Seq,
		Applied:        res.Applied,
		Resolve:        res.Resolve,
		WorkersTouched: res.WorkersTouched,
		Difference:     res.Summary.Difference,
		Average:        res.Summary.Average,
		Iterations:     res.Iterations,
		Converged:      res.Converged,
		Degraded:       res.Degraded,
		ElapsedMS:      float64(res.Elapsed.Microseconds()) / 1000,
	}
	if res.Audit != nil {
		ok := len(res.Audit.Violations) == 0
		resp.AuditOK = &ok
	}
	reply(w, http.StatusOK, resp)
}

// streamState handles GET /stream/state.
func (h *Handler) streamState(w http.ResponseWriter, r *http.Request) {
	h.streamMu.Lock()
	eng := h.stream
	if eng == nil {
		h.streamMu.Unlock()
		errorJSON(w, http.StatusNotFound, "no streaming instance; POST /stream/instance first")
		return
	}
	snap := eng.Snapshot()
	h.streamMu.Unlock()
	reply(w, http.StatusOK, stateResponse(snap))
}

// stateResponse maps an engine snapshot to the wire shape.
func stateResponse(snap stream.Snapshot) StreamStateResponse {
	return StreamStateResponse{
		Algorithm:  string(snap.Algorithm),
		Seq:        snap.Seq,
		Applied:    snap.Applied,
		Workers:    len(snap.Instance.Workers),
		Tasks:      snap.Instance.TaskCount(),
		Assigned:   snap.Summary.Assigned,
		Difference: snap.Summary.Difference,
		Average:    snap.Summary.Average,
		Iterations: snap.Iterations,
		Converged:  snap.Converged,
		Degraded:   snap.Degraded,
	}
}

// decodeDeltas decodes a JSON array of deltas, then reads the body to its
// end, so that bytes after the array count toward the body limit. A typoed
// field name would otherwise decode as the zero value and silently target
// task/worker 0, so unknown keys are rejected outright.
func decodeDeltas(body io.Reader) ([]stream.Delta, error) {
	var ds []stream.Delta
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ds); err != nil {
		return nil, err
	}
	_, err := io.Copy(io.Discard, body)
	return ds, err
}
