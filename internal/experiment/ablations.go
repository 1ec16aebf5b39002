package experiment

import (
	"context"
	"fmt"
	"time"

	"fairtask/internal/assign"
	"fairtask/internal/dataset"
	"fairtask/internal/evo"
	"fairtask/internal/game"
	"fairtask/internal/vdps"
)

// Ablation runners quantify the design choices called out in DESIGN.md:
// the ε pruning itself is covered by fig2/fig3; these cover the spatial
// index inside VDPS generation, the MPTA conflict-graph decomposition, FGT
// early termination and update order, and IEGT mutation.
func init() {
	registry["ablation-index"] = ablationIndex
	registry["ablation-decomposition"] = ablationDecomposition
	registry["ablation-earlyterm"] = ablationEarlyTerm
	registry["ablation-order"] = ablationOrder
	registry["ablation-mutation"] = ablationMutation
}

// ablationIndex measures VDPS generation time with the grid index against
// the full scan at growing |DP| (GM geometry, default ε).
func ablationIndex(cfg Config) (*Series, error) {
	s := &Series{
		Figure: "ablation-index",
		Title:  "VDPS generation: grid index vs full scan",
		XLabel: "|DP| (scaled)",
	}
	for _, dp := range []int{20, 40, 60, 80, 100} {
		c := cfg.gmConfig()
		c.DeliveryPoints = cfg.gmScaled(dp)
		in, err := dataset.GenerateGM(c)
		if err != nil {
			return nil, err
		}
		for _, variant := range []struct {
			name    string
			disable bool
		}{{"indexed", false}, {"scan", true}} {
			start := time.Now()
			g, err := vdps.Generate(in, vdps.Options{
				Epsilon:      DefaultEpsilonGM,
				DisableIndex: variant.disable,
			})
			if err != nil {
				return nil, fmt.Errorf("ablation-index at %d: %w", dp, err)
			}
			s.Points = append(s.Points, Point{
				X:          float64(cfg.gmScaled(dp)),
				Algorithm:  variant.name,
				CPUSeconds: time.Since(start).Seconds(),
				AvgPayoff:  float64(g.Stats().Candidates), // candidate count, for equality checks
			})
		}
	}
	return s, nil
}

// ablationDecomposition compares MPTA with and without conflict-graph
// decomposition on the SYN workload.
func ablationDecomposition(cfg Config) (*Series, error) {
	s := &Series{
		Figure: "ablation-decomposition",
		Title:  "MPTA: conflict-graph decomposition vs monolithic search",
		XLabel: "|W| (scaled)",
	}
	for _, w := range []int{1000, 2000, 3000} {
		c := cfg.synConfig()
		c.Workers = cfg.scaled(w)
		p, err := dataset.GenerateSYN(c)
		if err != nil {
			return nil, err
		}
		for _, variant := range []struct {
			name    string
			disable bool
		}{{"decomposed", false}, {"monolithic", true}} {
			alg := assign.MPTA{
				NodeBudget:           cfg.MPTANodeBudget,
				DisableDecomposition: variant.disable,
			}
			pt, err := measureProblem(p, alg, vdps.Options{Epsilon: DefaultEpsilonSYN})
			if err != nil {
				return nil, fmt.Errorf("ablation-decomposition at %d: %w", w, err)
			}
			pt.X = float64(cfg.scaled(w))
			pt.Algorithm = variant.name
			s.Points = append(s.Points, pt)
		}
	}
	return s, nil
}

// ablationEarlyTerm compares default FGT against the early-termination
// variant (utility-gain threshold), the paper's future-work optimization.
func ablationEarlyTerm(cfg Config) (*Series, error) {
	s := &Series{
		Figure: "ablation-earlyterm",
		Title:  "FGT: exact best response vs early termination",
		XLabel: "utility threshold",
	}
	in, err := dataset.GenerateGM(cfg.gmConfig())
	if err != nil {
		return nil, err
	}
	g, err := vdps.Generate(in, vdps.Options{Epsilon: DefaultEpsilonGM})
	if err != nil {
		return nil, err
	}
	for _, th := range []float64{0, 0.001, 0.01, 0.1} {
		start := time.Now()
		res, err := game.FGT(context.Background(), game.NewState(g), game.Options{Seed: cfg.Seed, EpsilonUtility: th})
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, Point{
			X:          th,
			Algorithm:  "FGT",
			PayoffDiff: res.Summary.Difference,
			AvgPayoff:  res.Summary.Average,
			CPUSeconds: time.Since(start).Seconds(),
			Iterations: res.Iterations,
		})
	}
	return s, nil
}

// ablationOrder compares FGT's sequential round-robin updates against
// random per-round orders.
func ablationOrder(cfg Config) (*Series, error) {
	s := &Series{
		Figure: "ablation-order",
		Title:  "FGT: round-robin vs random update order",
		XLabel: "seed",
	}
	in, err := dataset.GenerateGM(cfg.gmConfig())
	if err != nil {
		return nil, err
	}
	g, err := vdps.Generate(in, vdps.Options{Epsilon: DefaultEpsilonGM})
	if err != nil {
		return nil, err
	}
	for seed := int64(0); seed < 3; seed++ {
		for _, variant := range []struct {
			name   string
			random bool
		}{{"roundrobin", false}, {"random", true}} {
			start := time.Now()
			res, err := game.FGT(context.Background(), game.NewState(g), game.Options{Seed: seed, RandomOrder: variant.random})
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{
				X:          float64(seed),
				Algorithm:  variant.name,
				PayoffDiff: res.Summary.Difference,
				AvgPayoff:  res.Summary.Average,
				CPUSeconds: time.Since(start).Seconds(),
				Iterations: res.Iterations,
			})
		}
	}
	return s, nil
}

// ablationMutation sweeps IEGT's mutation rate.
func ablationMutation(cfg Config) (*Series, error) {
	s := &Series{
		Figure: "ablation-mutation",
		Title:  "IEGT: replicator dynamics with mutation",
		XLabel: "mutation rate",
	}
	in, err := dataset.GenerateGM(cfg.gmConfig())
	if err != nil {
		return nil, err
	}
	g, err := vdps.Generate(in, vdps.Options{Epsilon: DefaultEpsilonGM})
	if err != nil {
		return nil, err
	}
	for _, mu := range []float64{0, 0.05, 0.1, 0.2} {
		start := time.Now()
		res, err := evo.IEGT(context.Background(), game.NewState(g), evo.Options{
			Seed: cfg.Seed, MutationRate: mu, MaxIterations: 100,
		})
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, Point{
			X:          mu,
			Algorithm:  "IEGT",
			PayoffDiff: res.Summary.Difference,
			AvgPayoff:  res.Summary.Average,
			CPUSeconds: time.Since(start).Seconds(),
			Iterations: res.Iterations,
		})
	}
	return s, nil
}
