package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"fairtask"
	"fairtask/internal/audit"
	"fairtask/internal/dataset"
	"fairtask/internal/game"
	"fairtask/internal/model"
	"fairtask/internal/obs"
	"fairtask/internal/platform"
	"fairtask/internal/stream"
	"fairtask/internal/vdps"
)

// This file calls the layers in-process with the options fta serve derives
// from the workload's query, for the output checks and the traced run.

// countingRecorder forwards solver telemetry to a metrics recorder, as the
// server's does, and sums the deterministic counts the benchmark guards.
type countingRecorder struct {
	*obs.MetricsRecorder
	mu         sync.Mutex
	subsets    int
	candidates int
	rounds     int
}

func newCountingRecorder() *countingRecorder {
	return &countingRecorder{MetricsRecorder: fairtask.NewMetricsRecorder(obs.NewRegistry())}
}

// RecordVDPS implements obs.Recorder, summing the DP's explored subsets and
// candidates.
func (c *countingRecorder) RecordVDPS(e obs.VDPSEvent) {
	c.MetricsRecorder.RecordVDPS(e)
	c.mu.Lock()
	c.subsets += e.Subsets
	c.candidates += e.Candidates
	c.mu.Unlock()
}

// RecordSolve implements obs.Recorder, summing the dynamics' rounds.
func (c *countingRecorder) RecordSolve(e obs.SolveEvent) {
	c.MetricsRecorder.RecordSolve(e)
	c.mu.Lock()
	c.rounds += e.Iterations
	c.mu.Unlock()
}

// solveInProcess decodes a /solve body and assigns it exactly as the server
// does for the workload's query.
func solveInProcess(ctx context.Context, w workload, prob *model.Problem, rec obs.Recorder) (*platform.Result, error) {
	a, err := fairtask.NewAssigner(fairtask.Options{Algorithm: fairtask.Algorithm(w.alg), Seed: w.solverSeed, Recorder: rec})
	if err != nil {
		return nil, err
	}
	opt := platform.Options{VDPS: vdps.Options{Epsilon: w.eps}, Recorder: rec}
	if w.audit {
		opt.Audit = &audit.Options{VDPS: vdps.Options{Epsilon: w.eps}}
	}
	return platform.AssignContext(ctx, prob, a, opt)
}

func readProblem(body []byte) (*model.Problem, error) {
	return dataset.ReadCSV(bytes.NewReader(body))
}

// route is one worker's route as the /solve reply carries it.
type route struct {
	Center int     `json:"center"`
	Worker int     `json:"worker"`
	Points []int   `json:"points"`
	Payoff float64 `json:"payoff"`
}

// solveReply is the part of a /solve reply the output check compares.
type solveReply struct {
	Difference float64 `json:"payoff_difference"`
	Average    float64 `json:"average_payoff"`
	Routes     []route `json:"routes"`
	Audit      *struct {
		OK bool `json:"ok"`
	} `json:"audit"`
}

// expectedReply renders an in-process result the way the server does.
func expectedReply(prob *model.Problem, res *platform.Result) solveReply {
	out := solveReply{Difference: res.Difference, Average: res.Average}
	for i, pc := range res.PerCenter {
		in := &prob.Instances[i]
		for wi, rt := range pc.Assignment.Routes {
			if len(rt) == 0 {
				continue
			}
			ids := make([]int, len(rt))
			for k, p := range rt {
				ids[k] = in.Points[p].ID
			}
			out.Routes = append(out.Routes, route{
				Center: in.CenterID, Worker: in.Workers[wi].ID, Points: ids, Payoff: pc.Summary.Payoffs[wi],
			})
		}
	}
	return out
}

// sameReply compares two solve replies bit-exactly.
func sameReply(got, want solveReply) error {
	if got.Difference != want.Difference || got.Average != want.Average {
		return fmt.Errorf("payoff_difference/average_payoff %v/%v, want %v/%v",
			got.Difference, got.Average, want.Difference, want.Average)
	}
	if len(got.Routes) != len(want.Routes) {
		return fmt.Errorf("%d routes, want %d", len(got.Routes), len(want.Routes))
	}
	for i := range got.Routes {
		g, e := got.Routes[i], want.Routes[i]
		if g.Center != e.Center || g.Worker != e.Worker || g.Payoff != e.Payoff || !equalInts(g.Points, e.Points) {
			return fmt.Errorf("route %d is %+v, want %+v", i, g, e)
		}
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// streamOptions mirrors the options POST /stream/instance derives from the
// workload's query.
func streamOptions(w workload, rec obs.Recorder) stream.Options {
	opt := stream.Options{
		Algorithm: stream.Algorithm(w.alg),
		VDPS:      vdps.Options{Epsilon: w.eps},
		Metrics:   obs.NewStreamMetrics(obs.NewRegistry()),
		Recorder:  rec,
	}
	opt.Game.Seed, opt.Evo.Seed = w.solverSeed, w.solverSeed
	return opt
}

// streamStep is the expected outcome of one delta.
type streamStep struct {
	Seq        uint64  `json:"seq"`
	Resolve    string  `json:"resolve"`
	Difference float64 `json:"payoff_difference"`
	Average    float64 `json:"average_payoff"`
	Iterations int     `json:"iterations"`
	Touched    int     `json:"workers_touched"`
}

// streamState is the part of GET /stream/state the final check compares.
type streamState struct {
	Seq        uint64  `json:"seq"`
	Assigned   int     `json:"assigned"`
	Difference float64 `json:"payoff_difference"`
	Average    float64 `json:"average_payoff"`
	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
}

// referenceStreamState cold-solves the replayed instance with the reference
// FGT: the state the engine must hold after the whole stream.
func referenceStreamState(ctx context.Context, w workload, body []byte, ds []stream.Delta) (streamState, error) {
	prob, err := readProblem(body)
	if err != nil {
		return streamState{}, err
	}
	in := &prob.Instances[0]
	if err := stream.Replay(in, ds...); err != nil {
		return streamState{}, err
	}
	g, err := vdps.Generate(in, vdps.Options{Epsilon: w.eps})
	if err != nil {
		return streamState{}, err
	}
	res, err := game.ReferenceFGT(ctx, g, game.Options{Seed: w.solverSeed})
	if err != nil {
		return streamState{}, err
	}
	return streamState{
		Seq: ds[len(ds)-1].Seq, Assigned: res.Summary.Assigned, Difference: res.Summary.Difference,
		Average: res.Summary.Average, Iterations: res.Iterations, Converged: res.Converged,
	}, nil
}
