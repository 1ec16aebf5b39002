// Package obs is the zero-dependency telemetry layer of the fairtask
// engine: a concurrency-safe metrics registry with Prometheus text-format
// exposition, hierarchical spans, a Recorder hook interface the platform's
// per-center solves emit into, and net/http instrumentation for the
// assignment service.
//
// The package is deliberately stdlib-only (the module has no external
// dependencies) and imports nothing else from this repository, so every
// internal package — vdps, game, evo, platform, server — can depend on it
// without import cycles. All instruments are safe for concurrent use; the
// hot paths (Counter.Inc, Gauge.Set, Histogram.Observe) are lock-free
// atomics. A nil Recorder disables telemetry with no measurable overhead:
// the platform, the only package that emits Recorder events, guards every
// event behind a nil check.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value dimension of a metric sample.
type Label struct {
	// Name is the label key, e.g. "route".
	Name string
	// Value is the label value, e.g. "/solve".
	Value string
}

// L is shorthand for Label{Name: name, Value: value}.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter; non-positive deltas are ignored, keeping the
// counter monotonic.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add applies a (possibly negative) delta via a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution metric. Buckets are cumulative
// upper bounds in the Prometheus style; observations above the last bound
// land in the implicit +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; the last entry is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// newHistogram builds a histogram over ascending bucket bounds.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, or the +Inf slot
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DefBuckets are default latency buckets in seconds, from 1ms to 10s.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// CountBuckets are coarse buckets for iteration- and size-style histograms.
var CountBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500}

// PayoffBuckets cover payoff-scale quantities (P_dif, average payoff, the
// fairness potential Phi): log-spaced from small fractional differences up
// to large aggregate potentials.
var PayoffBuckets = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000,
}

// metricKind distinguishes the exposition TYPE of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// sample is one labeled child of a metric family; exactly one of c, g, h is
// non-nil, matching the family kind. For gauges, fn (when non-nil) is
// evaluated at exposition time instead of reading g.
type sample struct {
	labels []Label // sorted by name
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family groups all samples sharing a metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	bounds  []float64 // histogram families only
	samples map[string]*sample
}

// Registry is a concurrency-safe collection of metric families. Instrument
// lookups take a read lock; only the first registration of a (name, labels)
// pair takes the write lock. The zero value is not usable — call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: map[string]*family{}} }

// Counter returns the counter registered under name with the given labels,
// creating it on first use. help is recorded on first registration of the
// family. It panics if name is already registered as a different kind.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.sample(name, help, kindCounter, nil, labels).c
}

// Gauge returns the gauge registered under name with the given labels,
// creating it on first use. It panics if name is already registered as a
// different kind.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.sample(name, help, kindGauge, nil, labels).g
}

// Histogram returns the histogram registered under name with the given
// labels, creating it on first use with the given bucket upper bounds (the
// family's first registration wins; later bounds are ignored). It panics if
// name is already registered as a different kind.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.sample(name, help, kindHistogram, bounds, labels).h
}

// GaugeFunc registers a gauge whose value is computed by fn at every
// exposition — for quantities that live outside the registry (uptime,
// goroutine count, heap size). fn must be safe for concurrent use. On an
// already-registered (name, labels) pair the function replaces the previous
// sampler; it panics if name is registered as a different kind.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.sample(name, help, kindGauge, nil, labels)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// sample finds or creates the (family, labels) child.
func (r *Registry) sample(name, help string, kind metricKind, bounds []float64, labels []Label) *sample {
	sorted := sortLabels(labels)
	key := labelKey(sorted)

	r.mu.RLock()
	if f := r.families[name]; f != nil && f.kind == kind {
		if s := f.samples[key]; s != nil {
			r.mu.RUnlock()
			return s
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, samples: map[string]*sample{}}
		if kind == kindHistogram {
			b := append([]float64(nil), bounds...)
			sort.Float64s(b)
			f.bounds = b
		}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	s := f.samples[key]
	if s == nil {
		s = &sample{labels: sorted}
		switch kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = newHistogram(f.bounds)
		}
		f.samples[key] = s
	}
	return s
}

// sortLabels returns a copy of labels sorted by name.
func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// labelKey builds the canonical child key from sorted labels.
func labelKey(sorted []Label) string {
	if len(sorted) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range sorted {
		b.WriteString(l.Name)
		b.WriteByte(0)
		b.WriteString(l.Value)
		b.WriteByte(0)
	}
	return b.String()
}

// WritePrometheus writes every family in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, each with # HELP and
// # TYPE header lines, samples sorted by label signature, histograms with
// cumulative _bucket series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()

	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		f := r.families[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		keys := make([]string, 0, len(f.samples))
		for k := range f.samples {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := writeSample(w, f, f.samples[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSample writes the exposition lines of one labeled child.
func writeSample(w io.Writer, f *family, s *sample) error {
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(s.labels), s.c.Value())
		return err
	case kindGauge:
		v := s.g.Value()
		if s.fn != nil {
			v = s.fn()
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(s.labels), formatFloat(v))
		return err
	default:
		var cum int64
		for i := range s.h.bounds {
			cum += s.h.counts[i].Load()
			le := append(append([]Label(nil), s.labels...), L("le", formatFloat(s.h.bounds[i])))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(le), cum); err != nil {
				return err
			}
		}
		cum += s.h.counts[len(s.h.bounds)].Load()
		inf := append(append([]Label(nil), s.labels...), L("le", "+Inf"))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(inf), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(s.labels), formatFloat(s.h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(s.labels), s.h.Count())
		return err
	}
}

// labelString renders {a="x",b="y"}, or "" for no labels.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeValue escapes a label value per the exposition format.
func escapeValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes HELP text per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus expects (shortest
// round-trip representation; +Inf/-Inf/NaN spelled out).
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
