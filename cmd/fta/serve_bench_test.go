package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"fairtask/internal/dataset"
	"fairtask/internal/model"
	"fairtask/internal/obs"
)

// BenchmarkServeSolveW100 drives the fta serve handler in process through
// httptest with the instance of BenchmarkSolveFGTW100 — GM seed 1, 1000
// tasks, 100 workers, 150 points, one center — posted as CSV to
// /solve?alg=FGT&eps=0.6&seed=1. Unlike servebench's solve-w200, whose FGT
// converges in one round with no switch, this game moves (3 rounds, 42
// switches), so the served path's round cost shows. An untimed first
// request sets the expected reply; every timed reply must be a 200 equal to
// it in everything but elapsed_ms.
func BenchmarkServeSolveW100(b *testing.B) {
	in, err := dataset.GenerateGM(dataset.GMConfig{
		Seed: 1, Tasks: 1000, Workers: 100, DeliveryPoints: 150,
	})
	if err != nil {
		b.Fatal(err)
	}
	var body bytes.Buffer
	if err := dataset.WriteCSV(&body, &model.Problem{Instances: []model.Instance{*in}}); err != nil {
		b.Fatal(err)
	}
	h := newServerHandler(nil)
	solve := func() []byte {
		req := httptest.NewRequest(http.MethodPost, "/solve?alg=FGT&eps=0.6&seed=1",
			bytes.NewReader(body.Bytes()))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			b.Fatalf("status %d: %.300s", rr.Code, rr.Body.Bytes())
		}
		return rr.Body.Bytes()
	}
	want := solve()
	if !bytes.Contains(want, []byte(`"routes":[{`)) {
		b.Fatalf("reply assigns no route: %.300s", want)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := solve(); !sameReply(got, want) {
			b.Fatalf("reply %.300s, first reply %.300s", got, want)
		}
	}
}

// sameReply reports whether two /solve replies are equal outside the value
// of their elapsed_ms field, the one field that varies between runs.
func sameReply(a, b []byte) bool {
	split := func(r []byte) ([]byte, []byte) {
		const key = `"elapsed_ms":`
		i := bytes.Index(r, []byte(key))
		if i < 0 {
			return r, nil
		}
		j := bytes.IndexByte(r[i:], ',')
		if j < 0 {
			return r[:i], nil
		}
		return r[:i], r[i+j:]
	}
	ah, at := split(a)
	bh, bt := split(b)
	return bytes.Equal(ah, bh) && bytes.Equal(at, bt)
}

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
