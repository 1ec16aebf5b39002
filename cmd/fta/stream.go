package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"fairtask/internal/dataset"
	"fairtask/internal/evo"
	"fairtask/internal/game"
	"fairtask/internal/model"
	"fairtask/internal/obs"
	"fairtask/internal/online"
	"fairtask/internal/stream"
	"fairtask/internal/vdps"
)

// resolveLatency is the latency distribution of one resolve kind (noop,
// warm, regen, cold) in the fta stream report.
type resolveLatency struct {
	Count  int     `json:"count"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`
}

// streamReport is the machine-readable summary written by fta stream -json.
type streamReport struct {
	Algorithm        string                    `json:"algorithm"`
	Seed             int64                     `json:"seed"`
	Deltas           int                       `json:"deltas"`
	DeltasByKind     map[string]int            `json:"deltas_by_kind"`
	Resolves         map[string]int            `json:"resolves"`
	ResolveLatencies map[string]resolveLatency `json:"resolve_latencies"`
	WarmP50MS        float64                   `json:"warm_p50_ms"`
	WarmP99MS        float64                   `json:"warm_p99_ms"`
	WarmMeanMS       float64                   `json:"warm_mean_ms"`
	ColdMeanMS       float64                   `json:"cold_mean_ms"`
	ColdSamples      int                       `json:"cold_samples"`
	SpeedupX         float64                   `json:"speedup_x"`
	WorkersTouched   float64                   `json:"workers_touched_mean"`
	Workers          int                       `json:"workers"`
	FinalDifference  float64                   `json:"final_payoff_difference"`
	FinalAverage     float64                   `json:"final_average_payoff"`
}

func cmdStream(args []string) error {
	fs := flag.NewFlagSet("stream", flag.ContinueOnError)
	var (
		alg      = fs.String("alg", "FGT", "algorithm: FGT or IEGT")
		seed     = fs.Int64("seed", 1, "random seed for the instance, the stream and the dynamics")
		eps      = fs.Float64("eps", 0, "pruning threshold epsilon in km (0 = no pruning)")
		rate     = fs.Float64("rate", 60, "task arrivals per hour")
		duration = fs.Float64("duration", 1, "stream horizon in hours")
		lifetime = fs.Float64("lifetime", 0.8, "lifetime of an arriving task in hours")
		churn    = fs.Float64("churn", 4, "worker online/offline events per hour")
		reprice  = fs.Float64("reprice", 20, "task re-pricing events per hour")
		tasks    = fs.Int("tasks", 60, "initial tasks |S|")
		workers  = fs.Int("workers", 10, "initial workers |W|")
		points   = fs.Int("points", 24, "delivery points |DP|")
		coldN    = fs.Int("cold-every", 0, "cold-solve baseline every N deltas (0 = auto, ~8 samples)")
		jsonOut  = fs.String("json", "", "write the machine-readable report to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	in, err := dataset.GenerateGM(dataset.GMConfig{
		Seed: *seed, Tasks: *tasks, Workers: *workers, DeliveryPoints: *points,
	})
	if err != nil {
		return err
	}
	vopt := vdps.Options{Epsilon: math.Inf(1)}
	if *eps > 0 {
		vopt.Epsilon = *eps
	}
	ds, err := stream.GenerateStream(in, stream.StreamConfig{
		Seed: *seed, Rate: *rate, Duration: *duration, Lifetime: *lifetime,
		ChurnRate: *churn, RepriceRate: *reprice,
	})
	if err != nil {
		return err
	}
	if len(ds) == 0 {
		return fmt.Errorf("empty stream: raise -rate, -churn or -reprice")
	}

	reg := obs.NewRegistry()
	opt := stream.Options{
		Algorithm: stream.Algorithm(*alg),
		VDPS:      vopt,
		Metrics:   obs.NewStreamMetrics(reg),
	}
	opt.Game.Seed, opt.Evo.Seed = *seed, *seed
	eng, err := stream.New(context.Background(), in, opt)
	if err != nil {
		return err
	}

	// Warm pass: every delta through the live engine, one at a time, as an
	// ingest loop would see them.
	rep := streamReport{
		Algorithm:        *alg,
		Seed:             *seed,
		Deltas:           len(ds),
		DeltasByKind:     map[string]int{},
		Resolves:         map[string]int{},
		ResolveLatencies: map[string]resolveLatency{},
		Workers:          *workers,
	}
	warmNS := make([]float64, 0, len(ds))
	byKind := map[string][]float64{}
	var touched int
	for _, d := range ds {
		start := time.Now()
		res, err := eng.Apply(context.Background(), d)
		if err != nil {
			return fmt.Errorf("delta %d (%s): %w", d.Seq, d.Kind, err)
		}
		ns := float64(time.Since(start).Nanoseconds())
		warmNS = append(warmNS, ns)
		byKind[res.Resolve] = append(byKind[res.Resolve], ns)
		rep.DeltasByKind[string(d.Kind)]++
		rep.Resolves[res.Resolve]++
		touched += res.WorkersTouched
	}
	snap := eng.Snapshot()
	rep.WarmP50MS = percentile(warmNS, 50) / 1e6
	rep.WarmP99MS = percentile(warmNS, 99) / 1e6
	rep.WarmMeanMS = mean(warmNS) / 1e6
	rep.WorkersTouched = float64(touched) / float64(len(ds))
	rep.FinalDifference = snap.Summary.Difference
	rep.FinalAverage = snap.Summary.Average
	for kind, ns := range byKind {
		rep.ResolveLatencies[kind] = resolveLatency{
			Count:  len(ns),
			P50MS:  percentile(ns, 50) / 1e6,
			P99MS:  percentile(ns, 99) / 1e6,
			MeanMS: mean(ns) / 1e6,
		}
	}

	// Cold baseline: re-solve sampled prefixes from scratch, the cost an
	// engine-less deployment would pay on every delta.
	every := *coldN
	if every <= 0 {
		every = len(ds)/8 + 1
	}
	var coldNS []float64
	for i := every - 1; i < len(ds); i += every {
		replayed := in.Clone()
		if err := stream.Replay(replayed, ds[:i+1]...); err != nil {
			return err
		}
		start := time.Now()
		if err := coldSolve(replayed, *alg, *seed, vopt); err != nil {
			return err
		}
		coldNS = append(coldNS, float64(time.Since(start).Nanoseconds()))
	}
	rep.ColdSamples = len(coldNS)
	rep.ColdMeanMS = mean(coldNS) / 1e6
	if rep.WarmMeanMS > 0 {
		rep.SpeedupX = rep.ColdMeanMS / rep.WarmMeanMS
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "stream\t%d deltas over %.2fh", len(ds), *duration)
	for _, k := range sortedKeys(rep.DeltasByKind) {
		fmt.Fprintf(tw, "\t%s=%d", k, rep.DeltasByKind[k])
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "resolve\tcount\tp50\tp99\tmean")
	for _, k := range sortedKeys(rep.Resolves) {
		lat := rep.ResolveLatencies[k]
		fmt.Fprintf(tw, "%s\t%d\t%.3fms\t%.3fms\t%.3fms\n",
			k, lat.Count, lat.P50MS, lat.P99MS, lat.MeanMS)
	}
	fmt.Fprintf(tw, "warm apply\tp50 %.3fms\tp99 %.3fms\tmean %.3fms\tworkers touched %.1f/%d\n",
		rep.WarmP50MS, rep.WarmP99MS, rep.WarmMeanMS, rep.WorkersTouched, rep.Workers)
	fmt.Fprintf(tw, "cold solve\tmean %.3fms\t(%d samples)\tspeedup %.1fx\n",
		rep.ColdMeanMS, rep.ColdSamples, rep.SpeedupX)
	fmt.Fprintln(tw)
	if err := tw.Flush(); err != nil {
		return err
	}
	if err := onlineComparison(in, ds, snap, reg); err != nil {
		return err
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&rep); err != nil {
			return err
		}
	}
	return nil
}

// coldSolve runs the reference pipeline from scratch — regenerate the
// strategy spaces, then the full dynamics — discarding the result; only the
// wall clock matters to the caller.
func coldSolve(in *model.Instance, alg string, seed int64, vopt vdps.Options) error {
	if len(in.Workers) == 0 {
		return nil
	}
	g, err := vdps.Generate(in, vopt)
	if err != nil {
		return err
	}
	if alg == "IEGT" {
		_, err = evo.ReferenceIEGT(context.Background(), g, evo.Options{Seed: seed})
	} else {
		_, err = game.ReferenceFGT(context.Background(), g, game.Options{Seed: seed})
	}
	return err
}

// onlineComparison replays the stream's task arrivals through the greedy and
// fair-first online matchers (irrevocable per-task assignment) and prints
// them beside the warm engine's equilibrium, reproducing the paper's batch
// fairness result in the streaming setting. The matchers run on the initial
// roster; worker churn only affects the engine row.
func onlineComparison(in *model.Instance, ds []stream.Delta, snap stream.Snapshot, reg *obs.Registry) error {
	om := obs.NewOnlineMetrics(reg)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tassigned\trejected\tspread (P_dif)\tavg payoff")
	for _, policy := range []online.Policy{online.Greedy, online.FairFirst} {
		m, err := online.NewMatcher(in, policy)
		if err != nil {
			return err
		}
		m.Instrument(om.ForPolicy(policy.String()))
		for _, d := range ds {
			if d.Kind != stream.TaskArrived {
				continue
			}
			m.Offer(d.At, online.Task{
				ID: d.TaskID, Loc: in.Points[d.Point].Loc, Expiry: d.Expiry, Reward: d.Reward,
			})
		}
		r := m.Report()
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.4f\t%.4f\n",
			r.Policy, r.Assigned, r.Rejected, r.RateDifference, r.RateAverage)
	}
	fmt.Fprintf(tw, "warm %s\t%d\t-\t%.4f\t%.4f\n",
		snap.Algorithm, snap.Summary.Assigned, snap.Summary.Difference, snap.Summary.Average)
	return tw.Flush()
}

// percentile returns the p-th percentile of xs (nearest-rank); xs is sorted
// in place.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := len(xs) * p / 100
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sortedKeys(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
