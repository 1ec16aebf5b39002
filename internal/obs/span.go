package obs

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the span-tracing layer: hierarchical timed spans
// carried through context.Context, recorded into one buffer per tracer
// with monotonic timestamps and parent/child IDs. One Tracer covers one
// traced operation (an assignment, an HTTP request, an async job); its
// finished spans are collected into a Trace and exported as Chrome
// trace_event JSON (chrometrace.go), analyzed into per-phase breakdowns
// (breakdown.go), or kept in a bounded TraceRing for GET /debug/traces.
//
// Disabled tracing is free by construction: every Span method is nil-safe,
// so an instrumentation site on a path without a tracer costs exactly one
// nil check (StartSpan additionally costs one context.Value lookup, which
// is why hot loops hold the parent *Span and call Child directly). The
// enabled path appends each finished span to the tracer's one slice under
// a mutex: a traced request ends a few hundred spans from at most
// GOMAXPROCS goroutines, too few to contend.

// Attr is one string key/value annotation on a span (a center ID, an
// attempt number, a degradation rung).
type Attr struct {
	// Key is the annotation name.
	Key string `json:"key"`
	// Value is the annotation value, always rendered as a string.
	Value string `json:"value"`
}

// SpanRecord is one finished span: a named time range with its position in
// the span tree. Start and Duration are offsets on the tracer's monotonic
// clock, so arithmetic between records of one trace is exact regardless of
// wall-clock steps.
type SpanRecord struct {
	// ID is the span's identifier, unique within its trace and never zero.
	ID uint64 `json:"id"`
	// Parent is the parent span's ID, or zero for a root span.
	Parent uint64 `json:"parent,omitempty"`
	// Name is the phase name ("vdps.generate", "round", "center.solve", ...).
	// Aggregation in Breakdown groups by this name.
	Name string `json:"name"`
	// Start is the span's start as a monotonic offset from the trace start.
	Start time.Duration `json:"start_ns"`
	// Duration is the span's length.
	Duration time.Duration `json:"duration_ns"`
	// Attrs holds the span's annotations, in the order they were set.
	Attrs []Attr `json:"attrs,omitempty"`
}

// End returns the span's end offset.
func (r SpanRecord) End() time.Duration { return r.Start + r.Duration }

// Attr returns the value of the named annotation, or "" when absent.
func (r SpanRecord) Attr(key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Trace is one collected span tree: every finished span of one traced
// operation, sorted by start offset.
type Trace struct {
	// Name labels the trace ("fta assign", "POST /solve", "job 01HX...").
	Name string `json:"name"`
	// Start is the wall-clock time offsets are relative to.
	Start time.Time `json:"start"`
	// Spans holds the finished spans, sorted by Start then ID.
	Spans []SpanRecord `json:"spans"`
}

// Duration returns the end offset of the last-ending span, i.e. the traced
// operation's total span coverage.
func (t Trace) Duration() time.Duration {
	var max time.Duration
	for _, s := range t.Spans {
		if e := s.End(); e > max {
			max = e
		}
	}
	return max
}

// Tracer collects the spans of one traced operation. Span creation and End
// are safe for concurrent use from any number of goroutines: finished spans
// are appended to one slice under a mutex. A Tracer is cheap but not free —
// create one only when the caller asked for a trace.
type Tracer struct {
	start time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []SpanRecord
}

// NewTracer returns a tracer whose span offsets are measured from now.
func NewTracer() *Tracer { return NewTracerAt(time.Now()) }

// NewTracerAt returns a tracer whose span offsets are measured from start —
// used to anchor a trace at an event that predates tracer construction
// (e.g. a job's submit time, so the queued phase is on the timeline).
func NewTracerAt(start time.Time) *Tracer {
	return &Tracer{start: start}
}

// since returns the current monotonic offset from the trace start.
func (t *Tracer) since() time.Duration { return time.Since(t.start) }

// Root starts a new root span (no parent). The returned span must be ended
// with End to appear in the collected trace.
func (t *Tracer) Root(name string) *Span {
	return &Span{t: t, id: t.ids.Add(1), name: name, start: t.since()}
}

// RecordRange emits an already-finished span covering [start, end] in wall
// time, parented under parent (nil for a root). It records phases whose
// boundaries were observed before a span could be opened — e.g. the queued
// phase of a job, measured between its submit and run-start timestamps.
func (t *Tracer) RecordRange(parent *Span, name string, start, end time.Time) {
	var pid uint64
	if parent != nil {
		pid = parent.id
	}
	s := start.Sub(t.start)
	if s < 0 {
		s = 0
	}
	d := end.Sub(start)
	if d < 0 {
		d = 0
	}
	t.push(SpanRecord{ID: t.ids.Add(1), Parent: pid, Name: name, Start: s, Duration: d})
}

// push records one finished span.
func (t *Tracer) push(rec SpanRecord) {
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// Collect drains every finished span recorded so far and returns them as a
// Trace sorted by start offset. Spans still open (not yet ended) are not
// included; call Collect after the operation's root span has ended.
func (t *Tracer) Collect(name string) Trace {
	t.mu.Lock()
	spans := t.spans
	t.spans = nil
	t.mu.Unlock()
	sortSpans(spans)
	return Trace{Name: name, Start: t.start, Spans: spans}
}

// sortSpans orders spans by start offset, breaking ties by ID so the order
// is deterministic.
func sortSpans(spans []SpanRecord) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
}

// Span is one open (not yet ended) phase of a traced operation. All methods
// are nil-safe: a nil *Span is the disabled-tracing form and every call on
// it is a single pointer comparison, so instrumentation sites need no
// enabled/disabled branching of their own. A Span is used by one goroutine
// at a time (hand a Child to each concurrent branch instead of sharing).
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Duration
	attrs  []Attr
}

// Child starts a sub-span under s. On a nil span it returns nil, making the
// disabled path one nil check.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{t: s.t, id: s.t.ids.Add(1), parent: s.id, name: name, start: s.t.since()}
}

// SetAttr annotates the span; no-op on nil. The keys "id" and "parent"
// are reserved: the Chrome trace export carries the span's identity under
// them, and WriteChromeTrace rejects a span annotated with either.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetAttrInt annotates the span with an integer value; no-op on nil. The
// keys SetAttr reserves are reserved here too.
func (s *Span) SetAttrInt(key string, v int) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: strconv.Itoa(v)})
}

// End finishes the span and publishes its record to the tracer. No-op on
// nil. End must be called at most once per span.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.t.since()
	s.t.push(SpanRecord{
		ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start, Duration: end - s.start, Attrs: s.attrs,
	})
}

// spanKey is the context key carrying the active span.
type spanKey struct{}

// ContextWithSpan returns a context carrying s as the active span. A nil
// span returns ctx unchanged, so disabled callers pay nothing downstream.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the active span, or nil when the context carries
// none (tracing disabled). Functions with hot inner loops should call this
// once and use Span.Child per site.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan starts a child of the context's active span and returns a
// context carrying the child. When the context has no active span (tracing
// disabled) it returns ctx and nil unchanged — the cost is one
// context.Value lookup, and all uses of the returned nil span are nil
// checks.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.Child(name)
	return context.WithValue(ctx, spanKey{}, sp), sp
}
