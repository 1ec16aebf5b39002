package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"fairtask/internal/game"
	"fairtask/internal/model"
	"fairtask/internal/obs"
	"fairtask/internal/stream"
	"fairtask/internal/vdps"
)

// The traced run never feeds the end-to-end metrics. It makes three passes:
//
//  1. untraced in-process pass, alone on the machine: the expected replies
//     and alloc and GC per request;
//  2. ring pass: requests alternate between a default server and one
//     started with -trace-ring 0, alternating which goes first; their CPU
//     per request gives the cost of the server's trace ring;
//  3. attribution pass: each request to the default server is followed by
//     the same call in-process under a fresh obs.Tracer, so an end-to-end
//     sample and its layer split are taken side by side, under the same
//     machine conditions. For solves the server's assign span, read from
//     GET /debug/traces?spans=1&n=1, splits off the envelope; stream replies
//     carry the engine's elapsed_ms, and the ring pass doubles as the
//     stream's attribution pass. An untraced in-process call runs next to
//     each traced one, alternating which goes first; the two give the
//     benchmark's own tracing overhead.

// layerOrder lists the per-layer metrics in print order with their units.
var layerOrder = []struct{ name, unit string }{
	{"server.envelope_ms", "ms"},
	{"dataset.read_csv_ms", "ms"},
	{"platform.assign_ms", "ms"},
	{"platform.center_wait_ms", "ms"},
	{"platform.center_solve_ms", "ms"},
	{"vdps.generate_ms", "ms"},
	{"vdps.subsets_explored", "count"},
	{"vdps.candidates", "count"},
	{"game.state_build_ms", "ms"},
	{"game.strategies", "count"},
	{"dynamics.rounds", "count"},
	{"dynamics.round_ms", "ms"},
	{"audit.ms", "ms"},
	{"stream.apply_self_ms.warm", "ms"},
	{"stream.repair_ms.warm", "ms"},
	{"stream.resolve_ms.warm", "ms"},
	{"stream.repair_ms.regen", "ms"},
	{"stream.resolve_ms.regen", "ms"},
	{"stream.resolves.warm", "count"},
	{"stream.resolves.regen", "count"},
	{"stream.resolves.noop", "count"},
	{"stream.resolves.cold", "count"},
	{"stream.workers_touched", "count"},
	{"runtime.alloc_mb_per_req", "MiB"},
	{"runtime.gc_per_req", "count"},
	{"obs.ring_overhead_pct", "%"},
	{"obs.traced_overhead_pct", "%"},
	{"unattributed_ms", "ms"},
}

// solveAttributed lists the solve layers that, with the envelope, partition
// a request's latency; unattributed_ms is the end-to-end p50 minus their sum.
var solveAttributed = []string{"dataset.read_csv_ms", "platform.assign_ms", "platform.center_solve_ms",
	"vdps.generate_ms", "game.state_build_ms", "dynamics.round_ms", "audit.ms"}

// part is one attributed share of the end-to-end p50.
type part struct {
	name string
	ms   float64
}

// p50Window is how many deltas on each side of the p50 rank the stream
// attribution takes its layer times from.
const p50Window = 5

// deterministicCounts are the layer counts that must repeat exactly from run
// to run of one workload and seed.
var deterministicCounts = []string{"vdps.subsets_explored", "vdps.candidates", "game.strategies",
	"dynamics.rounds", "stream.resolves.warm", "stream.resolves.regen", "stream.resolves.noop",
	"stream.resolves.cold", "stream.workers_touched"}

func runTraced(ctx context.Context, cfg config, ss *servers, w workload, in *inputs) (*runResult, error) {
	res := &runResult{counts: map[string]float64{}}
	L := map[string]float64{}
	on, err := ss.start(cfg.fta, cfg.logDir)
	if err != nil {
		return nil, err
	}
	off, err := ss.start(cfg.fta, cfg.logDir, "-trace-ring", "0")
	if err != nil {
		return nil, err
	}
	for _, s := range []*server{on, off} {
		if err := setUp(ctx, s, w, in); err != nil {
			return nil, err
		}
	}

	// Pass 1.
	n := w.traced
	if w.stream {
		n = len(in.deltas)
	}
	var want solveReply
	var plain []tracedStep
	rec := newCountingRecorder()
	err = inProcess(func() error {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		var err error
		if w.stream {
			plain, err = replayStream(ctx, w, in)
		} else {
			plain, want, err = untracedSolves(ctx, w, in, n, rec)
		}
		runtime.ReadMemStats(&m1)
		L["runtime.alloc_mb_per_req"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / float64(n)
		L["runtime.gc_per_req"] = float64(m1.NumGC-m0.NumGC) / float64(n)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("untraced in-process pass: %w", err)
	}
	check := func(i int, r reply) bool {
		res.attempted++
		err := r.ok()
		if err == nil && w.stream {
			var got streamStep
			if err = json.Unmarshal(r.body, &got); err == nil && got != plain[i].streamStep {
				err = fmt.Errorf("reply %+v, want %+v", got, plain[i].streamStep)
			}
		} else if err == nil {
			var got solveReply
			if err = json.Unmarshal(r.body, &got); err == nil {
				err = sameReply(got, want)
			}
		}
		if err != nil {
			res.failed++
			res.fail("request %d: %v", i, err)
			return false
		}
		return true
	}

	// Pass 2, and pass 3 for the stream.
	var replay, plainReplay *streamReplay
	if w.stream {
		err := inProcess(func() (err error) {
			if replay, err = newStreamReplay(ctx, w, in); err != nil {
				return err
			}
			plainReplay, err = newStreamReplay(ctx, w, in)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	var e2e, envelope, plainLat []float64
	var steps []tracedStep
	// mirror stands in for the server's metrics recorder in paired calls.
	mirror := newCountingRecorder()
	// paired runs one untraced and one traced in-process call, alternating
	// which goes first, and keeps the traced step and the untraced latency.
	paired := func(i int, untraced, traced func() (tracedStep, error)) error {
		return inProcess(func() error {
			calls := []func() (tracedStep, error){untraced, traced}
			if i%2 == 1 {
				calls[0], calls[1] = traced, untraced
			}
			for _, call := range calls {
				st, err := call()
				if err != nil {
					return err
				}
				if st.layers == nil {
					plainLat = append(plainLat, st.elapsed)
				} else {
					steps = append(steps, st)
				}
			}
			return nil
		})
	}
	cpuOn0, err := procCPU(on.pid())
	if err != nil {
		return nil, err
	}
	cpuOff0, err := procCPU(off.pid())
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		path, body := solvePath(w), in.body
		if w.stream {
			path, body = "/stream/events", in.events[i]
		}
		order := []*server{on, off}
		if i%2 == 1 {
			order[0], order[1] = off, on
		}
		for _, s := range order {
			t0 := time.Now()
			r := s.post(ctx, path, body)
			lat := float64(time.Since(t0).Nanoseconds()) / 1e6
			var e struct {
				ElapsedMS float64 `json:"elapsed_ms"`
			}
			if check(i, r) && s == on && w.stream && json.Unmarshal(r.body, &e) == nil {
				e2e = append(e2e, lat)
				envelope = append(envelope, lat-e.ElapsedMS)
			}
		}
		if w.stream {
			err := paired(i,
				func() (tracedStep, error) { return plainReplay.step(ctx, i, false) },
				func() (tracedStep, error) { return replay.step(ctx, i, true) })
			if err != nil {
				return nil, err
			}
		}
	}
	cpuOn1, err := procCPU(on.pid())
	if err != nil {
		return nil, err
	}
	cpuOff1, err := procCPU(off.pid())
	if err != nil {
		return nil, err
	}
	L["obs.ring_overhead_pct"] = 100 * ((cpuOn1 - cpuOn0) - (cpuOff1 - cpuOff0)) / (cpuOff1 - cpuOff0)

	// Pass 3 for solves.
	if !w.stream {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			r := on.post(ctx, solvePath(w), in.body)
			lat := float64(time.Since(t0).Nanoseconds()) / 1e6
			if !check(i, r) {
				continue
			}
			assign, err := lastAssignSpan(ctx, on)
			if err != nil {
				return nil, err
			}
			e2e = append(e2e, lat)
			envelope = append(envelope, lat-assign)
			err = paired(i,
				func() (tracedStep, error) {
					st, _, err := untracedSolves(ctx, w, in, 1, mirror)
					if err != nil {
						return tracedStep{}, err
					}
					return st[0], nil
				},
				func() (tracedStep, error) { return tracedSolve(ctx, w, in, mirror) })
			if err != nil {
				return nil, err
			}
		}
	}
	ss.stop(on)
	ss.stop(off)

	var parts []part
	if w.stream {
		if len(e2e) != len(steps) {
			return nil, fmt.Errorf("stream attribution needs every reply: %d of %d", len(e2e), len(steps))
		}
		parts = streamAttribution(steps, plain, e2e, envelope, L, res)
	} else {
		parts = solveAttribution(steps, envelope, L)
		L["vdps.subsets_explored"] = float64(rec.subsets) / float64(n)
		L["vdps.candidates"] = float64(rec.candidates) / float64(n)
		L["dynamics.rounds"] = float64(rec.rounds) / float64(n)
	}
	err = inProcess(func() error {
		prob, err := readProblem(in.body)
		if err != nil {
			return err
		}
		strategies, err := countStrategies(prob.Instances, w.eps)
		L["game.strategies"] = float64(strategies)
		return err
	})
	if err != nil {
		return nil, err
	}
	p50 := median(e2e)
	var tracedLat []float64
	for _, st := range steps {
		tracedLat = append(tracedLat, st.elapsed)
	}
	L["obs.traced_overhead_pct"] = 100 * (median(tracedLat) - median(plainLat)) / median(plainLat)
	L["unattributed_ms"] = p50
	for _, pt := range parts {
		L["unattributed_ms"] -= pt.ms
	}

	for _, k := range deterministicCounts {
		res.counts[k] = L[k]
	}
	printAttribution(w, p50, parts, L)
	for _, l := range layerOrder {
		res.metrics = append(res.metrics, metric{l.name, L[l.name], l.unit})
	}
	return res, nil
}

// inProcess runs f with the machine's cores; the load generator itself runs
// at GOMAXPROCS 1.
func inProcess(f func() error) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	defer runtime.GOMAXPROCS(1)
	return f()
}

// untracedSolves decodes and solves the workload's body n times without a
// tracer, returning each call's latency and the expected reply.
func untracedSolves(ctx context.Context, w workload, in *inputs, n int, rec obs.Recorder) ([]tracedStep, solveReply, error) {
	var out []tracedStep
	var want solveReply
	for i := 0; i < n; i++ {
		t0 := time.Now()
		prob, err := readProblem(in.body)
		if err != nil {
			return nil, want, err
		}
		pr, err := solveInProcess(ctx, w, prob, rec)
		if err != nil {
			return nil, want, err
		}
		out = append(out, tracedStep{elapsed: float64(time.Since(t0).Nanoseconds()) / 1e6})
		if i == 0 {
			want = expectedReply(prob, pr)
		}
	}
	return out, want, nil
}

// tracedSolve decodes and solves the workload's body once under a fresh
// tracer and returns its layer times; the CSV decode is timed by the
// benchmark itself.
func tracedSolve(ctx context.Context, w workload, in *inputs, rec obs.Recorder) (tracedStep, error) {
	t0 := time.Now()
	var decode float64
	t, err := traced(ctx, func(ctx context.Context) error {
		d0 := time.Now()
		prob, err := readProblem(in.body)
		decode = float64(time.Since(d0).Nanoseconds()) / 1e6
		if err != nil {
			return err
		}
		_, err = solveInProcess(ctx, w, prob, rec)
		return err
	})
	if err != nil {
		return tracedStep{}, err
	}
	layers := solveLayers(t)
	layers["dataset.read_csv_ms"] = decode
	return tracedStep{elapsed: float64(time.Since(t0).Nanoseconds()) / 1e6, layers: layers}, nil
}

// solveAttribution fills the solve layers with their p50s over the traced
// calls and returns the envelope and the layers that partition a request.
func solveAttribution(steps []tracedStep, envelope []float64, L map[string]float64) []part {
	per := map[string][]float64{}
	for _, s := range steps {
		for k, v := range s.layers {
			per[k] = append(per[k], v)
		}
	}
	for k, v := range per {
		L[k] = median(v)
	}
	L["server.envelope_ms"] = median(envelope) - L["dataset.read_csv_ms"]
	parts := []part{{"server.envelope_ms", L["server.envelope_ms"]}}
	for _, k := range solveAttributed {
		parts = append(parts, part{k, L[k]})
	}
	return parts
}

// lastAssignSpan reads the newest trace from the server's ring and returns
// its assign span's duration in ms.
func lastAssignSpan(ctx context.Context, s *server) (float64, error) {
	r := s.get(ctx, "/debug/traces?spans=1&n=1")
	if err := r.ok(); err != nil {
		return 0, fmt.Errorf("GET /debug/traces: %w", err)
	}
	var tr struct {
		Traces []struct {
			Spans []obs.SpanRecord `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(r.body, &tr); err != nil {
		return 0, fmt.Errorf("GET /debug/traces: %w", err)
	}
	if len(tr.Traces) == 1 {
		for _, sp := range tr.Traces[0].Spans {
			if sp.Name == "assign" {
				return ms(sp.Duration), nil
			}
		}
	}
	return 0, fmt.Errorf("GET /debug/traces: newest trace has no assign span")
}

// traced runs call under a fresh tracer and returns the collected spans.
func traced(ctx context.Context, call func(context.Context) error) (obs.Trace, error) {
	tr := obs.NewTracer()
	root := tr.Root("servebench")
	err := call(obs.ContextWithSpan(ctx, root))
	root.End()
	return tr.Collect("servebench"), err
}

// solveLayers reduces one traced assignment to layer times. Centers run
// concurrently, so the layers inside center.solve are scaled by the share
// of their summed time that the wall clock saw (the union of the
// center.solve intervals over their sum); with one center the factor is 1.
// The result then partitions the assign span's wall time.
func solveLayers(t obs.Trace) map[string]float64 {
	self := map[string]time.Duration{}
	count := map[string]int{}
	for _, ph := range obs.Breakdown(t) {
		self[ph.Name], count[ph.Name] = ph.Self, ph.Count
	}
	var assignStart time.Duration
	var centers [][2]time.Duration
	var sum, wait time.Duration
	for _, s := range t.Spans {
		if s.Name == "assign" {
			assignStart = s.Start
		}
	}
	for _, s := range t.Spans {
		if s.Name == "center.solve" {
			centers = append(centers, [2]time.Duration{s.Start, s.End()})
			sum += s.Duration
			wait += s.Start - assignStart
		}
	}
	f := 1.0
	if sum > 0 {
		f = float64(union(centers)) / float64(sum)
	}
	return map[string]float64{
		"platform.assign_ms":       ms(self["assign"]),
		"platform.center_wait_ms":  ms(wait),
		"platform.center_solve_ms": f * ms(self["center.solve"]+self["rung.exact"]+self["attempt"]),
		"vdps.generate_ms":         f * ms(self["vdps.generate"]),
		"game.state_build_ms":      f * ms(self["state.build"]),
		"dynamics.round_ms":        f * ms(self["round"]),
		"audit.ms":                 f * ms(self["audit"]),
	}
}

// union returns the total length covered by the intervals.
func union(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, lo, hi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// countStrategies counts the strategy spaces game.NewState builds over each
// center's candidates.
func countStrategies(ins []model.Instance, eps float64) (int, error) {
	total := 0
	for i := range ins {
		if len(ins[i].Workers) == 0 {
			continue
		}
		g, err := vdps.Generate(&ins[i], vdps.Options{Epsilon: eps})
		if err != nil {
			return 0, err
		}
		for _, s := range game.NewState(g).Strategies {
			total += len(s)
		}
	}
	return total, nil
}

// streamAttribution fills the stream layers from the traced replay and
// returns the attribution of the end-to-end p50. steps, e2e and envelope are
// indexed by delta. Times not split by resolve kind are p50s over warm
// deltas, the mode p50 latency sits in. The end-to-end p50 sits above the
// warm median (the slower regen mode holds the top ranks), so the
// attribution instead takes the medians over the deltas whose server latency
// ranks within p50Window of the p50 rank.
func streamAttribution(steps, plain []tracedStep, e2e, envelope []float64, L map[string]float64, res *runResult) []part {
	byKind := map[string]map[string][]float64{}
	var touched, rounds int
	for i, s := range steps {
		if s.streamStep != plain[i].streamStep {
			res.fail("traced replay diverged at delta %d: %+v vs %+v", i, s.streamStep, plain[i].streamStep)
		}
		touched += s.Touched
		rounds += s.Iterations
		if byKind[s.Resolve] == nil {
			byKind[s.Resolve] = map[string][]float64{}
		}
		for k, v := range s.layers {
			byKind[s.Resolve][k] = append(byKind[s.Resolve][k], v)
		}
		L["stream.resolves."+s.Resolve]++
	}
	n := float64(len(steps))
	warm, regen := byKind[stream.ResolveWarm], byKind[stream.ResolveRegen]
	L["stream.apply_self_ms.warm"] = median(warm["apply"])
	L["stream.repair_ms.warm"] = median(warm["repair"])
	L["stream.resolve_ms.warm"] = median(warm["resolve"])
	L["stream.repair_ms.regen"] = median(regen["repair"])
	L["stream.resolve_ms.regen"] = median(regen["resolve"])
	L["vdps.generate_ms"] = median(warm["vdps"])
	L["game.state_build_ms"] = median(warm["state"])
	L["dynamics.round_ms"] = median(warm["round"])
	L["stream.workers_touched"] = float64(touched) / n
	L["dynamics.rounds"] = float64(rounds) / n
	L["server.envelope_ms"] = median(envelope)

	order := make([]int, len(steps))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return e2e[order[a]] < e2e[order[b]] })
	r := percentileIndex(len(order), 0.5)
	window := map[string][]float64{}
	for _, i := range order[max(r-p50Window, 0):min(r+p50Window+1, len(order))] {
		window["envelope"] = append(window["envelope"], envelope[i])
		for k, v := range steps[i].layers {
			window[k] = append(window[k], v)
		}
	}
	return []part{
		{"server.envelope_ms@p50", median(window["envelope"])},
		{"stream.apply_self_ms@p50", median(window["apply"])},
		{"stream.repair_ms@p50", median(window["repair"])},
		{"stream.resolve_ms@p50", median(window["resolve"])},
	}
}

// streamLayers reduces one traced ApplyAll. The dynamics' state.build and
// round spans are children of stream.apply that run inside the
// stream.resolve interval, so stream.resolve's duration already holds them.
func streamLayers(t obs.Trace) map[string]float64 {
	self := map[string]time.Duration{}
	total := map[string]time.Duration{}
	for _, ph := range obs.Breakdown(t) {
		self[ph.Name], total[ph.Name] = ph.Self, ph.Total
	}
	return map[string]float64{
		"apply":   ms(self["stream.apply"]),
		"repair":  ms(total["stream.repair"]),
		"resolve": ms(total["stream.resolve"]),
		"vdps":    ms(self["vdps.generate"]),
		"state":   ms(self["state.build"]),
		"round":   ms(self["round"]),
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// printAttribution prints the workload's latency split: each attributed
// layer's p50 self time and its share of the end-to-end p50.
func printAttribution(w workload, p50 float64, parts []part, L map[string]float64) {
	fmt.Printf("attribution %s: end-to-end p50 %.3f ms (traced-run server pass)\n", w.name, p50)
	for _, pt := range append(parts, part{"unattributed_ms", L["unattributed_ms"]}) {
		fmt.Printf("  %-28s %10.3f ms %6.1f%%\n", pt.name, pt.ms, 100*pt.ms/p50)
	}
	fmt.Printf("  %-28s %10.3f %%\n", "obs.ring_overhead_pct", L["obs.ring_overhead_pct"])
	fmt.Printf("  %-28s %10.3f %%\n", "obs.traced_overhead_pct", L["obs.traced_overhead_pct"])
}
