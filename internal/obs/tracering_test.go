package obs_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fairtask"
	"fairtask/internal/dataset"
	"fairtask/internal/obs"
)

// solveTrace traces a real 4-center IEGT solve with audit, its centers
// solved concurrently, as the server traces a POST /solve.
func solveTrace(t *testing.T) obs.Trace {
	t.Helper()
	p, err := dataset.GenerateSYN(dataset.SYNConfig{
		Seed: 1, Centers: 4, Tasks: 200, Workers: 24, DeliveryPoints: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	root := tr.Root("POST /solve")
	root.SetAttr("algorithm", "IEGT")
	opt := fairtask.Options{
		Algorithm: fairtask.AlgIEGT, Seed: 1, Parallelism: 4, Audit: true,
		VDPS: fairtask.VDPSOptions{Epsilon: 2},
	}
	if _, err := fairtask.SolveProblemContext(obs.ContextWithSpan(context.Background(), root), p, opt); err != nil {
		t.Fatal(err)
	}
	root.End()
	out := tr.Collect("POST /solve")
	if n := len(out.Spans); n < 4*6 {
		t.Fatalf("solve trace has %d spans, want the 4 centers' subtrees", n)
	}
	return out
}

// jobTrace records a trace the way the jobs manager does: a tracer
// anchored at submit time, the queued phase as a RecordRange and the run
// as a child of the job root.
func jobTrace(id string) obs.Trace {
	submitted := time.Now().Add(-5 * time.Millisecond)
	tr := obs.NewTracerAt(submitted)
	root := tr.Root("job")
	root.SetAttr("job", id)
	tr.RecordRange(root, "job.queued", submitted, submitted.Add(2*time.Millisecond))
	run := root.Child("job.run")
	run.Child("work").End()
	run.End()
	root.End()
	return tr.Collect("job " + id)
}

// edgeTraces are synthetic traces covering what the encoding must carry
// exactly.
func edgeTraces() []obs.Trace {
	kb := strings.Repeat("x", 1024)
	manyNames := make([]obs.SpanRecord, 80)
	for i := range manyNames {
		manyNames[i] = obs.SpanRecord{ID: uint64(i + 1), Name: fmt.Sprintf("s%d", i), Start: time.Duration(i),
			Attrs: []obs.Attr{{Key: fmt.Sprintf("k%d", i%40), Value: "v"}}}
	}
	return []obs.Trace{
		{Name: "empty"},
		{Name: "empty, non-nil spans", Spans: []obs.SpanRecord{}},
		{Name: "", Start: time.Now()},
		{Name: "no attributes", Start: time.Unix(1700000000, 5), Spans: []obs.SpanRecord{
			{ID: 1, Name: "root", Duration: time.Second},
			{ID: 2, Parent: 1, Name: "leaf", Start: 10, Duration: 5},
			{ID: 3, Parent: 1, Name: "leaf", Start: 20, Attrs: []obs.Attr{}},
		}},
		{Name: "values", Spans: []obs.SpanRecord{
			{ID: 1, Name: "attrs", Attrs: []obs.Attr{
				{Key: "k", Value: "first"}, {Key: "k", Value: "duplicate key"},
				{Key: "empty", Value: ""}, {Key: "", Value: "empty key"},
				{Key: "non-ascii", Value: "Zürich → 東京"},
				{Key: "invalid utf-8", Value: "\xff\xfe\xc3"},
				{Key: "1kb", Value: kb}, {Key: "nul", Value: "a\x00b"},
			}},
		}},
		{Name: "wide integers", Spans: []obs.SpanRecord{
			{ID: 1<<63 + 5, Parent: 1<<40 + 1, Name: "big", Start: 1<<33 + 7, Duration: 1 << 35},
			{ID: ^uint64(0), Parent: ^uint64(0) - 1, Name: "max", Start: 1<<62 + 3, Duration: 1<<63 - 1},
			{ID: 7, Name: "min", Start: -1 << 63, Duration: -1 << 63},
		}},
		{Name: "unsorted and negative starts", Spans: []obs.SpanRecord{
			{ID: 3, Name: "c", Start: 50, Duration: -4},
			{ID: 1, Name: "a", Start: -20, Duration: 3},
			{ID: 2, Parent: 3, Name: "b", Start: 49},
			{ID: 2, Parent: 3, Name: "b", Start: -1 << 40},
		}},
		{Name: "more names than a scan", Spans: manyNames},
	}
}

// TestTraceRingRoundTrip pins the ring's retained form: Snapshot returns
// every trace reflect.DeepEqual to the one added, and each encoding fills
// its one allocation exactly.
func TestTraceRingRoundTrip(t *testing.T) {
	traces := append([]obs.Trace{solveTrace(t), jobTrace("d1f0ab12e34c5678")}, edgeTraces()...)
	r := obs.NewTraceRing(len(traces))
	for _, tr := range traces {
		r.Add(tr)
	}
	if !obs.ExactlySized(r) {
		t.Error("an encoding does not fill its allocation exactly")
	}
	snap := r.Snapshot()
	if len(snap) != len(traces) {
		t.Fatalf("snapshot holds %d traces, want %d", len(snap), len(traces))
	}
	for i, got := range snap {
		want := traces[len(traces)-1-i]
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace %q came back different:\n got %+v\nwant %+v", want.Name, got, want)
		}
	}
	for _, n := range []int{0, 1, 3, len(traces), len(traces) + 5, -1} {
		got := r.Recent(n)
		want := snap
		if n >= 0 && n < len(snap) {
			want = snap[:n]
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Recent(%d) returned %d traces, want the newest %d", n, len(got), len(want))
		}
	}
}

// TestTraceRingRetainsBoundedBytes adds 1,000 job traces with distinct IDs
// and names to a 32-slot ring: what the ring keeps must not grow with the
// number of traces, distinct values or trace names, since nothing is
// interned beyond one trace.
func TestTraceRingRetainsBoundedBytes(t *testing.T) {
	base := time.Unix(1700000000, 0)
	job := func(i int) obs.Trace {
		id := fmt.Sprintf("%016x", 0x9e3779b97f4a7c15*uint64(i+1))
		return obs.Trace{Name: "job " + id, Start: base, Spans: []obs.SpanRecord{
			{ID: 1, Name: "job", Duration: 9 * time.Millisecond, Attrs: []obs.Attr{{Key: "job", Value: id}}},
			{ID: 2, Parent: 1, Name: "job.queued", Duration: 2 * time.Millisecond},
			{ID: 3, Parent: 1, Name: "job.run", Start: 2 * time.Millisecond, Duration: 7 * time.Millisecond},
		}}
	}
	r := obs.NewTraceRing(32)
	full := 0
	for i := 0; i < 1000; i++ {
		r.Add(job(i))
		switch got := obs.RetainedBytes(r); {
		case i == 31:
			full = got
		case i > 31 && got != full:
			t.Fatalf("after %d traces the ring keeps %d bytes, %d when it first filled", i+1, got, full)
		}
	}
	if full == 0 || full > 32*128 {
		t.Errorf("a full ring keeps %d bytes, want at most 128 per 3-span job trace", full)
	}
	if got := r.Snapshot()[0]; !reflect.DeepEqual(got, job(999)) {
		t.Errorf("newest trace = %+v, want job 999", got)
	}
}

// TestTraceRingConcurrentAddSnapshot runs Add, Snapshot, Recent and Total
// from several goroutines at once: every trace read back must equal one
// that was added, and Total must never go backwards.
func TestTraceRingConcurrentAddSnapshot(t *testing.T) {
	const writers, each = 4, 100
	want := make(map[string]obs.Trace, writers*each)
	for w := 0; w < writers; w++ {
		for i := 0; i < each; i++ {
			name := fmt.Sprintf("w%d-%d", w, i)
			want[name] = obs.Trace{Name: name, Spans: []obs.SpanRecord{
				{ID: 1, Name: "root", Duration: time.Duration(i), Attrs: []obs.Attr{{Key: "w", Value: name}}},
				{ID: 2, Parent: 1, Name: "child", Start: time.Duration(w)},
			}}
		}
	}
	r := obs.NewTraceRing(8)
	var writing, reading sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; i < each; i++ {
				r.Add(want[fmt.Sprintf("w%d-%d", w, i)])
			}
		}(w)
	}
	for g := 0; g < 2; g++ {
		reading.Add(1)
		go func(g int) {
			defer reading.Done()
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				total := r.Total()
				if total < last {
					t.Errorf("Total went from %d to %d", last, total)
				}
				last = total
				for _, got := range r.Recent([]int{-1, 3}[g]) {
					if !reflect.DeepEqual(got, want[got.Name]) {
						t.Errorf("read back %+v, want %+v", got, want[got.Name])
					}
				}
			}
		}(g)
	}
	writing.Wait()
	close(done)
	reading.Wait()
	if got := r.Total(); got != writers*each {
		t.Errorf("Total = %d, want %d", got, writers*each)
	}
	if got := len(r.Snapshot()); got != 8 {
		t.Errorf("ring holds %d traces, want 8", got)
	}
}

// servedTrace is a fixed trace shaped like one served
// solve-multicenter-audit request (32 centers, IEGT, audit on): 294 spans
// of 9 names carrying 167 attributes under 5 keys, at deterministic
// offsets that interleave the centers as two cores would.
func servedTrace() obs.Trace {
	var spans []obs.SpanRecord
	id := uint64(0)
	add := func(parent uint64, name string, start, dur time.Duration, attrs ...obs.Attr) uint64 {
		id++
		spans = append(spans, obs.SpanRecord{ID: id, Parent: parent, Name: name, Start: start, Duration: dur, Attrs: attrs})
		return id
	}
	alg := obs.Attr{Key: "algorithm", Value: "IEGT"}
	root := add(0, "POST /solve", 826, 4067194, alg)
	assign := add(root, "assign", 3348, 3924736, obs.Attr{Key: "centers", Value: "32"}, alg)
	for c := 0; c < 32; c++ {
		at := time.Duration(16374 + (c/2)*230000 + (c%2)*2549)
		center := add(assign, "center.solve", at, 263418, obs.Attr{Key: "center", Value: fmt.Sprint(c)})
		rung := add(center, "rung.exact", at+3661, 257441)
		attempt := add(rung, "attempt", at+4081, 218825, obs.Attr{Key: "n", Value: "1"})
		add(attempt, "vdps.generate", at+26434, 126176)
		add(attempt, "state.build", at+156614, 48991)
		rounds := 3
		if c < 4 {
			rounds = 4
		}
		for i := 0; i < rounds; i++ {
			add(attempt, "round", at+210943+time.Duration(i)*2814, 1841, obs.Attr{Key: "i", Value: fmt.Sprint(i + 1)})
		}
		add(rung, "audit", at+237014, 25947)
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
	return obs.Trace{Name: "POST /solve", Start: time.Unix(1700000000, 0), Spans: spans}
}

// BenchmarkTraceRingAdd adds servedTrace to a full 32-slot ring. Its one
// allocation per op is the trace's encoding, so B/op is what one retained
// trace costs the heap.
func BenchmarkTraceRingAdd(b *testing.B) {
	tr := servedTrace()
	r := obs.NewTraceRing(32)
	for i := 0; i < 32; i++ {
		r.Add(tr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Add(tr)
	}
}
