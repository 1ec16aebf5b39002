package obs

import (
	"context"
	"testing"
)

// The acceptance bar for the tracing layer: a span site on a path without
// a tracer must cost roughly one nil check (single-digit ns, 0 allocs).
// These benchmarks measure both the disabled and enabled paths and are
// exported to CI as BENCH_trace.json.

// BenchmarkSpanSiteDisabled measures the instrumented-site cost when
// tracing is off: Child/SetAttr/End on a nil span.
func BenchmarkSpanSiteDisabled(b *testing.B) {
	var parent *Span
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := parent.Child("round")
		sp.SetAttrInt("i", i)
		sp.End()
	}
}

// BenchmarkStartSpanDisabled measures StartSpan on a context without an
// active span: one context.Value lookup, no allocation.
func BenchmarkStartSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "phase")
		sp.End()
	}
}

// BenchmarkSpanFromContextDisabled measures the once-per-function span
// fetch hot loops use before switching to raw Child calls.
func BenchmarkSpanFromContextDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if sp := SpanFromContext(ctx); sp != nil {
			b.Fatal("unexpected span")
		}
	}
}

// BenchmarkSpanSiteEnabled measures the same site with tracing on: one
// span allocation and an append to the tracer's buffer under its mutex.
// The buffer grows to 65,536 spans between drains.
func BenchmarkSpanSiteEnabled(b *testing.B) {
	tr := NewTracer()
	root := tr.Root("root")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := root.Child("round")
		sp.End()
		if i&0xFFFF == 0xFFFF {
			b.StopTimer()
			tr.Collect("drain") // keep memory bounded across b.N
			b.StartTimer()
		}
	}
}

// BenchmarkSpanSiteEnabledParallel measures contention behaviour: many
// goroutines ending spans into the tracer's one mutex-guarded buffer. Each
// goroutine empties the buffer after every 65,536 of its spans, under the
// same mutex and without Collect's sort, so memory stays bounded across
// b.N.
func BenchmarkSpanSiteEnabledParallel(b *testing.B) {
	tr := NewTracer()
	root := tr.Root("root")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for i := 1; pb.Next(); i++ {
			sp := root.Child("round")
			sp.End()
			if i&0xFFFF == 0 {
				tr.mu.Lock()
				tr.spans = nil
				tr.mu.Unlock()
			}
		}
	})
}
