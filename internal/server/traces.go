package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"fairtask/internal/obs"
)

// TraceSummary is the wire form of one retained trace at GET /debug/traces:
// identity, total duration, a per-phase breakdown, and (with ?spans=1) the
// raw span records.
type TraceSummary struct {
	// Name labels the traced operation ("POST /solve", "job <id>").
	Name string `json:"name"`
	// Start is the trace's wall-clock start.
	Start time.Time `json:"start"`
	// DurationMS is the span coverage of the trace in milliseconds.
	DurationMS float64 `json:"duration_ms"`
	// SpanCount is the number of recorded spans.
	SpanCount int `json:"span_count"`
	// Phases is the per-phase aggregation, ordered by descending self time.
	Phases []PhaseSummary `json:"phases"`
	// Spans holds the raw records when requested with ?spans=1.
	Spans []obs.SpanRecord `json:"spans,omitempty"`
}

// PhaseSummary is one row of a trace's per-phase breakdown in milliseconds.
type PhaseSummary struct {
	// Name is the phase (span) name.
	Name string `json:"name"`
	// Count is how many spans had this name.
	Count int `json:"count"`
	// TotalMS and SelfMS are the summed and self time of the phase.
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	// P50MS and P99MS are per-span duration quantiles.
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
}

// TracesResponse is the JSON body of GET /debug/traces.
type TracesResponse struct {
	// Total counts every trace ever recorded, including ones evicted from
	// the ring.
	Total uint64 `json:"total"`
	// Traces lists the retained traces, newest first.
	Traces []TraceSummary `json:"traces"`
}

// debugTraces serves the recent-trace ring: GET /debug/traces returns the
// retained traces newest first with per-phase breakdowns; ?spans=1 includes
// raw span records, ?n=5 limits the count. 404 when tracing is disabled.
func (h *Handler) debugTraces(w http.ResponseWriter, r *http.Request) {
	if h.Traces == nil {
		http.NotFound(w, r)
		return
	}
	n := -1
	if s := r.URL.Query().Get("n"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 0 {
			n = v
		}
	}
	withSpans := false
	if s := r.URL.Query().Get("spans"); s != "" {
		withSpans, _ = strconv.ParseBool(s)
	}
	traces := h.Traces.Recent(n)
	writeTraces(w, h.Traces.Total(), traces, withSpans)
}

// writeTraces renders traces, newest first, as the GET /debug/traces
// body.
func writeTraces(w http.ResponseWriter, total uint64, traces []obs.Trace, withSpans bool) {
	resp := TracesResponse{Total: total, Traces: []TraceSummary{}}
	for _, tr := range traces {
		ts := TraceSummary{
			Name:       tr.Name,
			Start:      tr.Start,
			DurationMS: durMS(tr.Duration()),
			SpanCount:  len(tr.Spans),
			Phases:     []PhaseSummary{},
		}
		for _, ph := range obs.Breakdown(tr) {
			ts.Phases = append(ts.Phases, PhaseSummary{
				Name:    ph.Name,
				Count:   ph.Count,
				TotalMS: durMS(ph.Total),
				SelfMS:  durMS(ph.Self),
				P50MS:   durMS(ph.P50),
				P99MS:   durMS(ph.P99),
			})
		}
		if withSpans {
			ts.Spans = tr.Spans
		}
		resp.Traces = append(resp.Traces, ts)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// durMS converts a duration to fractional milliseconds for JSON output.
func durMS(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}
