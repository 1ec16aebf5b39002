package obs

import (
	"io"
	"testing"
	"time"
)

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram(DefBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) / 1000)
	}
}

func BenchmarkRegistryLookup(b *testing.B) {
	r := NewRegistry()
	r.Counter("bench_total", "", L("route", "/solve"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("bench_total", "", L("route", "/solve")).Inc()
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	rec := NewMetricsRecorder(r)
	for i := 0; i < 50; i++ {
		rec.RecordSolve(SolveEvent{Algorithm: "FGT", Iterations: i, Converged: true, Elapsed: time.Millisecond})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
