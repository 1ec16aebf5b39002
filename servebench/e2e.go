package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"fairtask/internal/obs"
	"fairtask/internal/stream"
)

// setupRepeats is how many times a run sets up a server; setup_s is their
// median, and the last set-up server serves the timed window.
const setupRepeats = 5

// runResult is one run's outcome before it is printed.
type runResult struct {
	attempted, failed int
	metrics           []metric
	counts            map[string]float64
	problems          []string
}

type metric struct {
	name  string
	value float64
	unit  string
}

func (r *runResult) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// solvePath is the /solve request line of a workload.
func solvePath(w workload) string {
	p := fmt.Sprintf("/solve?alg=%s&eps=%g&seed=%d", w.alg, w.eps, w.solverSeed)
	if w.audit {
		p += "&audit=1"
	}
	return p
}

func instancePath(w workload) string {
	return fmt.Sprintf("/stream/instance?alg=%s&eps=%g&seed=%d", w.alg, w.eps, w.solverSeed)
}

// setUp brings a started server to the state the timed window begins in:
// warm-up solves, or the stream instance's cold solve.
func setUp(ctx context.Context, s *server, w workload, in *inputs) error {
	if w.stream {
		if err := s.post(ctx, instancePath(w), in.body).ok(); err != nil {
			return fmt.Errorf("POST /stream/instance: %w", err)
		}
		return nil
	}
	for i := 0; i < w.warmup; i++ {
		if err := s.post(ctx, solvePath(w), in.body).ok(); err != nil {
			return fmt.Errorf("warm-up solve: %w", err)
		}
	}
	return nil
}

// window is the outcome of one timed window.
type window struct {
	lat     []float64
	replies []reply
	// wall and cpu are the window's wall time and the server's CPU seconds,
	// both without the re-sent attempts.
	wall time.Duration
	cpu  float64
	// resent counts /solve attempts re-sent after steal; stealPct is the
	// share of machine CPU time stolen over the whole window.
	resent   int
	stealPct float64
}

// drive runs the closed loop: one request at a time on one keep-alive
// connection, the next sent only after the previous reply is read. Replies
// are kept for checking after the window; the generator's GC is off inside
// it so a collection cannot land in a measured request.
//
// On a shared host the hypervisor deschedules a virtual CPU for tens of
// milliseconds at a time, in bursts that come and go over minutes. A /solve
// attempt during which the machine's steal counter moved is re-sent, and its
// time and server CPU are left out of the window: the program under test
// cannot cause steal. Re-sends are capped at one per timed request, so a
// window at most doubles. A stream delta cannot be re-sent, since its
// sequence number is consumed.
func drive(ctx context.Context, s *server, w workload, in *inputs) (*window, error) {
	n := w.timed
	if w.stream {
		n = len(in.events)
	}
	win := &window{lat: make([]float64, n), replies: make([]reply, n)}
	path := solvePath(w)
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	runtime.GC()
	cpu0, err := procCPU(s.pid())
	if err != nil {
		return nil, err
	}
	steal0, total0, err := machineCPU()
	if err != nil {
		return nil, err
	}
	var lost time.Duration
	var lostCPU float64
	start := time.Now()
	for i := 0; i < n; i++ {
		body := in.body
		if w.stream {
			path, body = "/stream/events", in.events[i]
		}
		for {
			st0, _, err := machineCPU()
			if err != nil {
				return nil, err
			}
			c0, err := procCPU(s.pid())
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			r := s.post(ctx, path, body)
			d := time.Since(t0)
			st1, _, err := machineCPU()
			if err != nil {
				return nil, err
			}
			if w.stream || st1 == st0 || win.resent == n || r.ok() != nil {
				win.lat[i], win.replies[i] = ms(d), r
				break
			}
			c1, err := procCPU(s.pid())
			if err != nil {
				return nil, err
			}
			lost += d
			lostCPU += c1 - c0
			win.resent++
		}
	}
	win.wall = time.Since(start) - lost
	cpu1, err := procCPU(s.pid())
	if err != nil {
		return nil, err
	}
	steal1, total1, err := machineCPU()
	if err != nil {
		return nil, err
	}
	win.cpu = cpu1 - cpu0 - lostCPU
	win.stealPct = 100 * float64(steal1-steal0) / float64(max(total1-total0, 1))
	return win, nil
}

// runEndToEnd measures one workload against fta serve with tracing off.
func runEndToEnd(ctx context.Context, cfg config, ss *servers, w workload, in *inputs) (*runResult, error) {
	var setups []float64
	var srv *server
	for r := 0; r < setupRepeats; r++ {
		t0 := time.Now()
		s, err := ss.start(cfg.fta, cfg.logDir)
		if err != nil {
			return nil, err
		}
		if err := setUp(ctx, s, w, in); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r < setupRepeats-1 {
			ss.stop(s)
		} else {
			srv = s
		}
	}

	win, err := drive(ctx, srv, w, in)
	if err != nil {
		return nil, err
	}
	lat := win.lat
	fmt.Printf("window requests=%d resent_after_steal=%d wall_s=%.3f machine_steal_pct=%.1f\n",
		len(lat), win.resent, win.wall.Seconds(), win.stealPct)
	rss, err := procPeakRSS(srv.pid())
	if err != nil {
		return nil, err
	}
	var final reply
	if w.stream {
		final = srv.get(ctx, "/stream/state")
	}
	ss.stop(srv)

	res := &runResult{attempted: len(lat) + win.resent, counts: map[string]float64{}}
	// Output checks run after the window, with the machine's cores back.
	_ = inProcess(func() error {
		if w.stream {
			checkStream(ctx, w, in, win.replies, final, lat, res)
		} else {
			checkSolves(ctx, w, in, win.replies, res)
		}
		return nil
	})

	p50, err := percentile(lat, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(lat, 0.9)
	if err != nil {
		return nil, err
	}
	n := float64(len(lat))
	res.metrics = []metric{
		{"throughput_rps", n / win.wall.Seconds(), "1/s"},
		{"latency_p50_ms", p50, "ms"},
		{"latency_p90_ms", p90, "ms"},
		{"server_cpu_ms_per_req", win.cpu * 1000 / n, "ms"},
		{"server_rss_peak_mb", rss, "MiB"},
		{"setup_s", median(setups), "s"},
	}
	return res, nil
}

// checkSolves compares every /solve reply against an in-process assignment
// of the same body and solver seed, bit-exactly.
func checkSolves(ctx context.Context, w workload, in *inputs, replies []reply, res *runResult) {
	prob, err := readProblem(in.body)
	if err != nil {
		res.fail("decode body in-process: %v", err)
		res.failed = len(replies)
		return
	}
	rec := newCountingRecorder()
	pr, err := solveInProcess(ctx, w, prob, rec)
	if err != nil {
		res.fail("in-process solve: %v", err)
		res.failed = len(replies)
		return
	}
	res.counts["vdps.subsets_explored"] = float64(rec.subsets)
	res.counts["vdps.candidates"] = float64(rec.candidates)
	res.counts["dynamics.rounds"] = float64(rec.rounds)
	want := expectedReply(prob, pr)
	for i, r := range replies {
		if err := r.ok(); err != nil {
			res.failed++
			res.fail("request %d: %v", i, err)
			continue
		}
		var got solveReply
		if err := json.Unmarshal(r.body, &got); err != nil {
			res.failed++
			res.fail("request %d: decode reply: %v", i, err)
			continue
		}
		err := sameReply(got, want)
		if err == nil && w.audit && (got.Audit == nil || !got.Audit.OK) {
			err = fmt.Errorf("audit block missing or not ok")
		}
		if err != nil {
			res.failed++
			res.fail("request %d: %v", i, err)
		}
	}
}

// checkStream compares each /stream/events reply with an in-process engine
// fed the same deltas, the final /stream/state with a reference cold solve
// of the replayed instance, and guards the warm/regen mode boundary.
func checkStream(ctx context.Context, w workload, in *inputs, replies []reply, final reply, lat []float64, res *runResult) {
	want, err := replayStream(ctx, w, in)
	if err != nil {
		res.fail("in-process stream: %v", err)
		res.failed = len(replies)
		return
	}
	resolves := map[string]int{}
	regen := 0
	var rounds int
	for i, r := range replies {
		var got streamStep
		err := r.ok()
		if err == nil {
			err = json.Unmarshal(r.body, &got)
		}
		if err == nil && got != want[i].streamStep {
			err = fmt.Errorf("reply %+v, want %+v", got, want[i].streamStep)
		}
		if err != nil {
			res.failed++
			res.fail("delta %d: %v", i, err)
			continue
		}
		resolves[got.Resolve]++
		rounds += got.Iterations
		if got.Resolve == stream.ResolveRegen {
			regen++
		}
	}
	for _, k := range []string{stream.ResolveWarm, stream.ResolveRegen, stream.ResolveNoop, stream.ResolveCold} {
		res.counts["stream.resolves."+k] = float64(resolves[k])
	}
	res.counts["dynamics.rounds"] = float64(rounds) / float64(len(replies))
	if resolves[stream.ResolveCold] != 0 {
		res.fail("%d cold resolves; the workload must never fall back", resolves[stream.ResolveCold])
	}
	if err := checkModeBoundary(len(lat), len(lat)-regen, 0.5, 0.9); err != nil {
		res.fail("mode boundary: %v", err)
	}

	ref, err := referenceStreamState(ctx, w, in.body, in.deltas)
	if err != nil {
		res.fail("reference solve: %v", err)
		return
	}
	var got streamState
	err = final.ok()
	if err == nil {
		err = json.Unmarshal(final.body, &got)
	}
	if err == nil && got != ref {
		err = fmt.Errorf("state %+v, want reference %+v", got, ref)
	}
	if err != nil {
		res.fail("GET /stream/state: %v", err)
	}
}

// tracedStep is one delta's in-process outcome, with its layer times when
// it ran under a tracer.
type tracedStep struct {
	streamStep
	elapsed float64 // ms, as timed by the benchmark
	layers  map[string]float64
}

// streamReplay is an in-process engine configured like the server's, fed
// the workload's deltas one at a time.
type streamReplay struct {
	eng *stream.Engine
	in  *inputs
}

func newStreamReplay(ctx context.Context, w workload, in *inputs) (*streamReplay, error) {
	prob, err := readProblem(in.body)
	if err != nil {
		return nil, err
	}
	if len(prob.Instances) != 1 {
		return nil, fmt.Errorf("stream body has %d centers", len(prob.Instances))
	}
	eng, err := stream.New(ctx, &prob.Instances[0], streamOptions(w, newCountingRecorder()))
	if err != nil {
		return nil, err
	}
	return &streamReplay{eng: eng, in: in}, nil
}

// step applies delta i, under a fresh tracer when trace is set.
func (r *streamReplay) step(ctx context.Context, i int, trace bool) (tracedStep, error) {
	d := r.in.deltas[i]
	var res stream.Result
	apply := func(ctx context.Context) error {
		var err error
		res, err = r.eng.ApplyAll(ctx, []stream.Delta{d})
		return err
	}
	t0 := time.Now()
	var layers map[string]float64
	var err error
	if trace {
		var t obs.Trace
		t, err = traced(ctx, apply)
		layers = streamLayers(t)
	} else {
		err = apply(ctx)
	}
	if err != nil {
		return tracedStep{}, fmt.Errorf("delta %d: %w", d.Seq, err)
	}
	return tracedStep{
		streamStep: streamStep{
			Seq: res.Seq, Resolve: res.Resolve, Difference: res.Summary.Difference, Average: res.Summary.Average,
			Iterations: res.Iterations, Touched: res.WorkersTouched,
		},
		elapsed: float64(time.Since(t0).Nanoseconds()) / 1e6,
		layers:  layers,
	}, nil
}

// replayStream replays the whole stream untraced.
func replayStream(ctx context.Context, w workload, in *inputs) ([]tracedStep, error) {
	r, err := newStreamReplay(ctx, w, in)
	if err != nil {
		return nil, err
	}
	out := make([]tracedStep, len(in.deltas))
	for i := range out {
		if out[i], err = r.step(ctx, i, false); err != nil {
			return nil, err
		}
	}
	return out, nil
}
