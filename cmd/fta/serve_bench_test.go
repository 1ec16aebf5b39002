package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"fairtask/internal/dataset"
	"fairtask/internal/obs"
)

// BenchmarkServeSolveAudit drives the fta serve handler in process through
// httptest with the request of servebench's solve-multicenter-audit
// workload (without its ID relabelling): the SYN problem of seed 1 — 32
// centers, 3200 tasks, 320 workers, 640 points — posted as CSV to
// /solve?alg=IEGT&eps=2&audit=1&seed=1. Every response is checked for 200
// and a clean audit. ring=32 keeps the handler's default 32-trace ring of
// recent solves; ring=0 sets Handler.Traces to nil, so the pair measures
// what request tracing costs. gc/op is the number of GC cycles the timed
// loop ran, per request: the request heap sits at the GC's minimum goal,
// so what the ring retains shows up as extra cycles.
func BenchmarkServeSolveAudit(b *testing.B) {
	p, err := dataset.GenerateSYN(dataset.SYNConfig{
		Seed: 1, Centers: 32, Tasks: 3200, Workers: 320, DeliveryPoints: 640,
	})
	if err != nil {
		b.Fatal(err)
	}
	var body bytes.Buffer
	if err := dataset.WriteCSV(&body, p); err != nil {
		b.Fatal(err)
	}
	for _, ring := range []int{32, 0} {
		b.Run(fmt.Sprintf("ring=%d", ring), func(b *testing.B) {
			h := newServerHandler(nil)
			h.Traces = nil
			if ring > 0 {
				h.Traces = obs.NewTraceRing(ring)
			}
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/solve?alg=IEGT&eps=2&audit=1&seed=1",
					bytes.NewReader(body.Bytes()))
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, req)
				if rr.Code != http.StatusOK || !bytes.Contains(rr.Body.Bytes(), []byte(`"audit":{"ok":true`)) {
					b.Fatalf("status %d: %.300s", rr.Code, rr.Body.Bytes())
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc/op")
		})
	}
}
