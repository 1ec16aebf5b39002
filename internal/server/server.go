// Package server exposes the assignment engine over HTTP, so an SC platform
// can call fairtask as a sidecar service: POST a problem in the library's
// CSV schema and receive the assignment and its fairness metrics as JSON.
// Every request is instrumented through the internal/obs registry, exposed
// in Prometheus text format at GET /metrics.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"fairtask/internal/assign"
	"fairtask/internal/audit"
	"fairtask/internal/dataset"
	"fairtask/internal/fault"
	"fairtask/internal/jobs"
	"fairtask/internal/model"
	"fairtask/internal/obs"
	"fairtask/internal/payoff"
	"fairtask/internal/platform"
	"fairtask/internal/stream"
	"fairtask/internal/vdps"
)

// Factory builds an assigner for an algorithm name and seed, or returns an
// error for unknown names. The root package supplies one wrapping
// fairtask.NewAssigner, so the service supports the same algorithm set as
// the library.
type Factory func(algorithm string, seed int64) (assign.Assigner, error)

// Handler is the HTTP API. Routes:
//
//	GET  /healthz           -> 200 "ok"
//	GET  /readyz            -> JSON queue/drain state; 503 while draining
//	GET  /metrics           -> Prometheus text exposition of Registry
//	POST /solve?alg=FGT&eps=2&seed=1&parallel=4&audit=1
//	     body: problem CSV  -> JSON SolveResponse (synchronous)
//	POST /jobs?alg=...      -> 202 JSON JobResponse; 429 when the queue is full
//	GET  /jobs/{id}         -> JSON JobResponse (Result populated when done)
//	DELETE /jobs/{id}       -> cancel; JSON JobResponse
type Handler struct {
	factory Factory
	mux     *http.ServeMux
	// MaxBodyBytes bounds request bodies; zero means 32 MiB.
	MaxBodyBytes int64
	// Registry collects the service's HTTP and solver metrics. New installs
	// a fresh registry; replace or nil it before serving the first request.
	Registry *obs.Registry
	// Logger receives structured request and solve logs. Nil (the default)
	// disables logging.
	Logger *slog.Logger
	// Recorder receives solver telemetry (VDPS generation, per-center
	// solves, whole assignments) for every /solve request. Nil disables it.
	Recorder obs.Recorder
	// Jobs is the asynchronous solve-job manager behind /jobs and /readyz.
	// Nil (the default) disables the job API: job routes answer 503 and
	// /readyz reports ready based on the process being up alone.
	Jobs *jobs.Manager
	// SolveTimeout bounds synchronous /solve requests; the request context
	// is canceled after this long and the client receives 503. Zero means
	// no server-imposed deadline.
	SolveTimeout time.Duration
	// Retry retries each per-center solve attempt under this policy, with
	// fta_retry_total{scope="solve"} counting the retries. Nil disables
	// retrying.
	Retry *fault.RetryPolicy
	// Degrade enables the exact→sampled→greedy degradation ladder for all
	// solves; the serving rung is reported in SolveResponse.Degraded and
	// counted in fta_degrade_total{rung}. Nil means exact-only.
	Degrade *platform.Degrade
	// Traces is the ring of recent solve traces served at GET /debug/traces.
	// Synchronous /solve requests trace into it directly; wire the same ring
	// into jobs.Config.Traces to capture async jobs too. Nil disables
	// request tracing (span sites then cost one nil check).
	Traces *obs.TraceRing

	// streamMu serializes the streaming engine behind /stream/*; the engine
	// itself is single-writer by design.
	streamMu sync.Mutex
	stream   *stream.Engine
}

// New builds the handler around a solver factory with a fresh metrics
// registry. The HTTP metric families are pre-registered so the first
// /metrics scrape already lists them.
func New(factory Factory) *Handler {
	h := &Handler{
		factory:  factory,
		mux:      http.NewServeMux(),
		Registry: obs.NewRegistry(),
		Traces:   obs.NewTraceRing(0),
	}
	h.mux.HandleFunc("/healthz", h.health)
	h.mux.HandleFunc("GET /readyz", h.ready)
	h.mux.HandleFunc("/solve", h.solve)
	h.mux.HandleFunc("/metrics", h.metrics)
	h.mux.HandleFunc("POST /jobs", h.jobSubmit)
	h.mux.HandleFunc("GET /jobs/{id}", h.jobGet)
	h.mux.HandleFunc("DELETE /jobs/{id}", h.jobCancel)
	h.mux.HandleFunc("GET /debug/traces", h.debugTraces)
	h.mux.HandleFunc("POST /stream/instance", h.streamInstance)
	h.mux.HandleFunc("POST /stream/events", h.streamEvents)
	h.mux.HandleFunc("GET /stream/state", h.streamState)
	seedHTTPMetrics(h.Registry)
	obs.NewAuditMetrics(h.Registry)
	obs.NewFaultMetrics(h.Registry)
	obs.RegisterRuntimeMetrics(h.Registry)
	obs.NewStreamMetrics(h.Registry)
	return h
}

// routes are the fixed paths used as low-cardinality route labels; anything
// else is folded into "other". Per-job paths share the "/jobs/:id" label so
// job IDs never become label values.
var routes = []string{"/solve", "/healthz", "/readyz", "/metrics", "/jobs", "/jobs/:id", "/debug/traces",
	"/stream/instance", "/stream/events", "/stream/state"}

// routeLabel maps a request path to its metric label.
func routeLabel(r *http.Request) string {
	for _, known := range routes {
		if r.URL.Path == known {
			return known
		}
	}
	if len(r.URL.Path) > len("/jobs/") && r.URL.Path[:len("/jobs/")] == "/jobs/" {
		return "/jobs/:id"
	}
	return "other"
}

// seedHTTPMetrics pre-registers the request metric families with zero-valued
// children for every known route, so a scrape before the first request (or
// the very first scrape, which is itself only counted after it responds)
// already exposes fta_http_requests_total and fta_http_request_seconds.
func seedHTTPMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge("fta_http_in_flight", "HTTP requests currently being served.")
	for _, rt := range routes {
		reg.Counter("fta_http_requests_total", "HTTP requests served, by route and status class.",
			obs.L("route", rt), obs.L("code", "2xx"))
		reg.Histogram("fta_http_request_seconds", "HTTP request latency in seconds, by route.",
			obs.DefBuckets, obs.L("route", rt))
	}
}

// ServeHTTP implements http.Handler, instrumenting every request with the
// handler's current Registry and Logger.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	obs.Middleware(h.Registry, h.Logger, routeLabel, h.mux).ServeHTTP(w, r)
}

func (h *Handler) health(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// metrics serves the registry in Prometheus text format; 404 when metrics
// are disabled (nil Registry).
func (h *Handler) metrics(w http.ResponseWriter, r *http.Request) {
	if h.Registry == nil {
		http.NotFound(w, r)
		return
	}
	obs.MetricsHandler(h.Registry).ServeHTTP(w, r)
}

// WorkerRoute is one worker's route in a SolveResponse. Points carries
// delivery point IDs in visiting order.
type WorkerRoute struct {
	Center int     `json:"center"`
	Worker int     `json:"worker"`
	Points []int   `json:"points"`
	Payoff float64 `json:"payoff"`
}

// AuditViolation is one invariant violation found by the assignment auditor,
// tagged with the distribution center it occurred in.
type AuditViolation struct {
	Center int    `json:"center"`
	Check  string `json:"check"`
	Worker int    `json:"worker"`
	Detail string `json:"detail"`
}

// AuditResponse summarizes the independent re-verification of a solve
// (requested with ?audit=1). Unlike the library, the service reports
// violations instead of failing the request: the caller gets the assignment
// and decides what to do with a failed audit.
type AuditResponse struct {
	OK         bool             `json:"ok"`
	Centers    int              `json:"centers"`
	Violations []AuditViolation `json:"violations,omitempty"`
}

// SolveResponse is the JSON result of POST /solve.
type SolveResponse struct {
	Algorithm  string         `json:"algorithm"`
	Workers    int            `json:"workers"`
	Difference float64        `json:"payoff_difference"`
	Average    float64        `json:"average_payoff"`
	Gini       float64        `json:"gini"`
	ElapsedMS  float64        `json:"elapsed_ms"`
	Routes     []WorkerRoute  `json:"routes"`
	Audit      *AuditResponse `json:"audit,omitempty"`
	// Degraded names the worst degradation-ladder rung that served any
	// center ("sampled", "greedy"); omitted for full-fidelity solves.
	Degraded string `json:"degraded,omitempty"`
}

// reply writes v as a JSON reply with the given status. It encodes into a
// buffer before it commits the status, so a value encoding/json rejects (a
// NaN or infinite payoff) becomes a 422 naming the cause, not a 200 with an
// empty body.
func reply(w http.ResponseWriter, status int, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		reply(w, http.StatusUnprocessableEntity, map[string]string{"error": "reply does not encode: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client is gone; there is no one to tell.
	_, _ = w.Write(body.Bytes())
}

// errorJSON writes a JSON error body with the given status.
func errorJSON(w http.ResponseWriter, status int, msg string) {
	reply(w, status, map[string]string{"error": msg})
}

// solveRequest is a fully parsed and validated solve request: the problem,
// the solver, and the platform options. Both the synchronous /solve path and
// the asynchronous job path parse into this before solving.
type solveRequest struct {
	prob   *model.Problem
	solver assign.Assigner
	opt    platform.Options
}

// parseSolveRequest validates the query parameters and CSV body shared by
// POST /solve and POST /jobs. On failure it writes the error response and
// returns nil.
func (h *Handler) parseSolveRequest(w http.ResponseWriter, r *http.Request) *solveRequest {
	q := r.URL.Query()
	p, ok := parseSolveParams(w, q)
	if !ok {
		return nil
	}
	par := 0
	if s := q.Get("parallel"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			errorJSON(w, http.StatusBadRequest, "bad parallel")
			return nil
		}
		par = v
	}
	var aopt *audit.Options
	if s := q.Get("audit"); s != "" {
		v, err := strconv.ParseBool(s)
		if err != nil {
			errorJSON(w, http.StatusBadRequest, "bad audit")
			return nil
		}
		if v {
			aopt = &audit.Options{VDPS: vdps.Options{Epsilon: p.eps}}
		}
	}

	prob, ok := readBody(h, w, r, "bad problem CSV: ", dataset.ReadCSV)
	if !ok {
		return nil
	}
	solver, err := h.factory(p.alg, p.seed)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, err.Error())
		return nil
	}
	return &solveRequest{
		prob:   prob,
		solver: solver,
		opt: platform.Options{
			VDPS:        vdps.Options{Epsilon: p.eps},
			Parallelism: par,
			Recorder:    h.Recorder,
			Audit:       aopt,
			Retry:       h.retryPolicy(),
			Degrade:     h.Degrade,
		},
	}
}

// solveParams are the query parameters shared by /solve, /jobs and
// /stream/instance.
type solveParams struct {
	alg  string
	seed int64
	eps  float64
}

// parseSolveParams reads alg (default FGT), seed (default 1) and eps
// (default +Inf, no pruning; otherwise > 0, which rejects NaN). On failure
// it answers 400 and returns false.
func parseSolveParams(w http.ResponseWriter, q url.Values) (solveParams, bool) {
	p := solveParams{alg: q.Get("alg"), seed: 1, eps: math.Inf(1)}
	if p.alg == "" {
		p.alg = "FGT"
	}
	if s := q.Get("seed"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			errorJSON(w, http.StatusBadRequest, "bad seed: "+err.Error())
			return p, false
		}
		p.seed = v
	}
	if s := q.Get("eps"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || !(v > 0) {
			errorJSON(w, http.StatusBadRequest, "bad eps")
			return p, false
		}
		p.eps = v
	}
	return p, true
}

// readBody decodes r's body with decode under h.MaxBodyBytes (zero means
// 32 MiB). decode must read the body to its end. A body over the limit
// answers 413; any other decode failure answers 400 with what prefixed to
// the error. On failure it returns false.
func readBody[T any](h *Handler, w http.ResponseWriter, r *http.Request, what string, decode func(io.Reader) (T, error)) (T, bool) {
	limit := h.MaxBodyBytes
	if limit <= 0 {
		limit = 32 << 20
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	v, err := decode(body)
	if err == nil {
		return v, true
	}
	// A decoder can stop at a syntax error before the limit. Read on, so that
	// a body over the limit answers 413 whatever its first bytes.
	if _, rest := io.Copy(io.Discard, body); rest != nil {
		err = rest
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		errorJSON(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
	} else {
		errorJSON(w, http.StatusBadRequest, what+err.Error())
	}
	return v, false
}

// retryPolicy clones the handler's retry policy with the solve-scope retry
// counter chained onto OnRetry. Nil when retrying is disabled.
func (h *Handler) retryPolicy() *fault.RetryPolicy {
	if h.Retry == nil {
		return nil
	}
	p := *h.Retry
	if h.Registry != nil {
		fm := obs.NewFaultMetrics(h.Registry)
		chain := p.OnRetry
		p.OnRetry = func(attempt int, delay time.Duration, err error) {
			fm.RetrySolve.Inc()
			if chain != nil {
				chain(attempt, delay, err)
			}
		}
	}
	return &p
}

// auditResponse folds the per-center audit reports into the response block
// and bumps the audit metrics. Returns nil when auditing was off.
func (h *Handler) auditResponse(prob *model.Problem, res *platform.Result) *AuditResponse {
	if res.Audit == nil {
		return nil
	}
	var am *obs.AuditMetrics
	if h.Registry != nil {
		am = obs.NewAuditMetrics(h.Registry)
	}
	ar := &AuditResponse{OK: true}
	for i, rep := range res.Audit {
		if rep == nil {
			continue
		}
		ar.Centers++
		if am != nil {
			am.Runs.Inc()
		}
		if rep.OK() {
			continue
		}
		ar.OK = false
		if am != nil {
			am.Failures.Inc()
		}
		for _, v := range rep.Violations {
			ar.Violations = append(ar.Violations, AuditViolation{
				Center: prob.Instances[i].CenterID,
				Check:  string(v.Check),
				Worker: v.Worker,
				Detail: v.Detail,
			})
		}
	}
	return ar
}

// fpServe is hit once per executed solve request (synchronous or job), so
// chaos specs can fail requests above the solver layer ("server.solve:err:1").
var fpServe = fault.Point("server.solve")

// runSolve executes a parsed solve request and builds the response body.
func (h *Handler) runSolve(ctx context.Context, req *solveRequest) (*SolveResponse, error) {
	if err := fpServe.Hit(ctx); err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := platform.AssignContext(ctx, req.prob, req.solver, req.opt)
	if err != nil {
		var re *fault.RetryError
		if errors.As(err, &re) && h.Registry != nil {
			obs.NewFaultMetrics(h.Registry).ExhaustedSolve.Inc()
		}
		return nil, err
	}
	resp := &SolveResponse{
		Algorithm:  req.solver.Name(),
		Workers:    len(res.Payoffs),
		Difference: res.Difference,
		Average:    res.Average,
		Gini:       payoff.Gini(res.Payoffs),
		ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
		Audit:      h.auditResponse(req.prob, res),
		Degraded:   res.Degraded,
	}
	for i, pc := range res.PerCenter {
		in := &req.prob.Instances[i]
		for wi, route := range pc.Assignment.Routes {
			if len(route) == 0 {
				continue
			}
			ids := make([]int, len(route))
			for k, p := range route {
				ids[k] = in.Points[p].ID
			}
			resp.Routes = append(resp.Routes, WorkerRoute{
				Center: in.CenterID,
				Worker: in.Workers[wi].ID,
				Points: ids,
				Payoff: pc.Summary.Payoffs[wi],
			})
		}
	}
	if h.Logger != nil {
		h.Logger.LogAttrs(ctx, slog.LevelInfo, "solve",
			slog.String("algorithm", req.solver.Name()),
			slog.Int("centers", len(req.prob.Instances)),
			slog.Int("workers", len(res.Payoffs)),
			slog.Float64("payoff_difference", res.Difference),
			slog.Float64("average_payoff", res.Average),
			slog.Duration("elapsed", res.Elapsed))
	}
	return resp, nil
}

func (h *Handler) solve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		errorJSON(w, http.StatusMethodNotAllowed, "POST a problem CSV to /solve")
		return
	}
	req := h.parseSolveRequest(w, r)
	if req == nil {
		return
	}

	// The solve observes the request context — canceled when the client
	// disconnects — tightened by the server-side timeout when configured.
	ctx := r.Context()
	if h.SolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.SolveTimeout)
		defer cancel()
	}
	// Request tracing: one tracer per synchronous solve, collected into the
	// /debug/traces ring whether the solve succeeds or fails.
	var tracer *obs.Tracer
	var rootSp *obs.Span
	if h.Traces != nil {
		tracer = obs.NewTracer()
		rootSp = tracer.Root("POST /solve")
		rootSp.SetAttr("algorithm", req.solver.Name())
		ctx = obs.ContextWithSpan(ctx, rootSp)
	}
	resp, err := h.runSolve(ctx, req)
	if tracer != nil {
		rootSp.End()
		h.Traces.Add(tracer.Collect("POST /solve"))
	}
	if err != nil {
		if ctx.Err() != nil {
			errorJSON(w, http.StatusServiceUnavailable,
				"solve aborted: "+ctx.Err().Error()+" (submit via POST /jobs for long solves)")
			return
		}
		errorJSON(w, http.StatusUnprocessableEntity, "solve failed: "+err.Error())
		return
	}
	reply(w, http.StatusOK, resp)
}
