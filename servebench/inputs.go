package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"fairtask/internal/dataset"
	"fairtask/internal/geo"
	"fairtask/internal/model"
	"fairtask/internal/stream"
)

// workload is one fixed traffic mix driven against fta serve. Every run of a
// workload sends the same number of requests with the same bodies (for a
// given seed), so runs differ only in how long the program takes.
type workload struct {
	name string
	// stream selects the /stream/events path; otherwise requests go to
	// /solve with query.
	stream bool
	// alg, eps, audit and solverSeed are the solve (or stream instance)
	// query parameters.
	alg        string
	eps        float64
	audit      bool
	solverSeed int64
	// timed is the number of timed /solve requests; stream workloads time
	// every delta of their fixed stream instead.
	timed int
	// warmup is the number of untimed /solve requests sent after /readyz,
	// so the timed window starts with a grown heap and warm caches.
	warmup int
	// traced is the number of requests per pass of the traced run.
	traced int
}

var workloads = []workload{
	{name: "solve-w200", alg: "FGT", eps: 0.6, solverSeed: 1, timed: 100, warmup: 3, traced: 30},
	{name: "solve-multicenter-audit", alg: "IEGT", eps: 2, audit: true, solverSeed: 1, timed: 500, warmup: 20, traced: 100},
	{name: "stream-reprice-expiry", stream: true, alg: "FGT", eps: 1.5, solverSeed: 7},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// The stream workload's delta sequence: re-pricings plus short-lived
// arrivals and their expiries, no worker churn. Reprices take the warm
// path; arrivals and expiries move a point's earliest expiry and take the
// regen path. The rates put regen at 28% of the 187 deltas, so p50 (rank 94)
// and p90 (rank 169) sit 40 and 35 ranks from the mode boundary at rank 134.
var streamConfig = stream.StreamConfig{
	Seed: 7, Rate: 40, Duration: 1.8, Lifetime: 0.4, RepriceRate: 30,
}

// inputs are the generated request payloads of one workload and seed.
type inputs struct {
	// body is the problem CSV: the /solve body, or the /stream/instance
	// body for stream workloads.
	body []byte
	// deltas is the stream workload's delta sequence, one per request.
	deltas []stream.Delta
	// events holds each delta's pre-encoded /stream/events body.
	events [][]byte
}

// makeInputs generates a workload's inputs from its seed. The base
// instances and the solver seeds are fixed: the W200 benchmark instance, a
// 32-center SYN problem and the DP-heavy stream regime. The seed draws a
// presentation of them: every ID set is permuted onto itself and x/y are
// swapped with probability 1/2. Both leave the problem and the solver's
// trajectory unchanged, so every seed does the same work while the bytes the
// server parses differ. Geometry, entity order and the solver seed stay
// fixed because each moves latency more than any regression bound: W200
// solve latency spans 113-317 ms over GM seeds 1-6, and the solver seed
// alone moves W200 between one and two best-response rounds.
func makeInputs(w workload, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	var prob *model.Problem
	var deltas []stream.Delta
	switch w.name {
	case "solve-w200":
		in, err := dataset.GenerateGM(dataset.GMConfig{Seed: 1, Tasks: 1000, Workers: 200, DeliveryPoints: 150})
		if err != nil {
			return nil, err
		}
		prob = &model.Problem{Instances: []model.Instance{*in}}
	case "solve-multicenter-audit":
		p, err := dataset.GenerateSYN(dataset.SYNConfig{Seed: 1, Centers: 32, Tasks: 3200, Workers: 320, DeliveryPoints: 640})
		if err != nil {
			return nil, err
		}
		prob = p
	case "stream-reprice-expiry":
		in, err := dataset.GenerateGM(dataset.GMConfig{Seed: 7, Tasks: 360, Workers: 8, DeliveryPoints: 120})
		if err != nil {
			return nil, err
		}
		if deltas, err = stream.GenerateStream(in, streamConfig); err != nil {
			return nil, err
		}
		prob = &model.Problem{Instances: []model.Instance{*in}}
	default:
		return nil, fmt.Errorf("no inputs for workload %q", w.name)
	}
	relabel(rng, prob, deltas)
	if err := prob.Validate(); err != nil {
		return nil, fmt.Errorf("relabeled problem: %w", err)
	}
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, prob); err != nil {
		return nil, err
	}
	out := &inputs{body: buf.Bytes(), deltas: deltas}
	for _, d := range deltas {
		b, err := encodeEvent(d)
		if err != nil {
			return nil, err
		}
		out.events = append(out.events, b)
	}
	return out, nil
}

// relabel permutes the problem's center, point, task and worker ID sets
// onto themselves and swaps x and y with probability 1/2, in place. The
// metric is symmetric in its coordinates, so distances are bit-identical.
// Stream deltas naming a base task are rewritten to match; tasks that
// arrive in the stream keep their IDs, which lie above every base ID.
func relabel(rng *rand.Rand, p *model.Problem, ds []stream.Delta) {
	swap := rng.Intn(2) == 1
	var centers, points, tasks, workers []*int
	var locs []*geo.Point
	for ii := range p.Instances {
		in := &p.Instances[ii]
		centers = append(centers, &in.CenterID)
		locs = append(locs, &in.Center)
		for pi := range in.Points {
			dp := &in.Points[pi]
			points = append(points, &dp.ID)
			locs = append(locs, &dp.Loc)
			for ti := range dp.Tasks {
				tasks = append(tasks, &dp.Tasks[ti].ID)
			}
		}
		for wi := range in.Workers {
			workers = append(workers, &in.Workers[wi].ID)
			locs = append(locs, &in.Workers[wi].Loc)
		}
	}
	permuteIDs(rng, centers)
	permuteIDs(rng, points)
	taskMap := permuteIDs(rng, tasks)
	permuteIDs(rng, workers)
	if swap {
		for _, l := range locs {
			l.X, l.Y = l.Y, l.X
		}
	}
	for i := range ds {
		if id, ok := taskMap[ds[i].TaskID]; ok {
			ds[i].TaskID = id
		}
	}
}

// permuteIDs gives the referenced IDs a random permutation of themselves
// and returns the old-to-new mapping.
func permuteIDs(rng *rand.Rand, refs []*int) map[int]int {
	m := make(map[int]int, len(refs))
	perm := rng.Perm(len(refs))
	ids := make([]int, len(refs))
	for i, r := range refs {
		ids[i] = *r
	}
	for i, j := range perm {
		m[ids[i]] = ids[j]
		*refs[i] = ids[j]
	}
	return m
}

// encodeEvent encodes one delta as a /stream/events body.
func encodeEvent(d stream.Delta) ([]byte, error) {
	return json.Marshal([]stream.Delta{d})
}
