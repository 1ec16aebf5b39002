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

func init() {
	registry["optgap"] = optGap
}

// optGap measures how close the heuristics come to the exact scalarized
// FTA optimum (score = avg - P_dif, see assign.Exact) on small random
// instances where exhaustive search is feasible. The series reports, per
// instance seed, the achieved score of EXACT and each heuristic; the gap is
// the vertical distance to the EXACT line.
func optGap(cfg Config) (*Series, error) {
	s := &Series{
		Figure: "optgap",
		Title:  "Optimality gap vs exact scalarized FTA optimum",
		XLabel: "instance seed",
	}
	for seed := int64(0); seed < 5; seed++ {
		in, err := dataset.GenerateGM(dataset.GMConfig{
			Seed:           cfg.Seed + seed,
			Tasks:          40,
			Workers:        4,
			DeliveryPoints: 8,
		})
		if err != nil {
			return nil, err
		}
		g, err := vdps.Generate(in, vdps.Options{Epsilon: DefaultEpsilonGM, MaxSize: 2})
		if err != nil {
			return nil, err
		}
		algs := []assign.Assigner{
			assign.Exact{},
			assign.MPTA{NodeBudget: cfg.MPTANodeBudget},
			assign.GTA{},
			game.Options{Seed: cfg.Seed},
			evo.Options{Seed: cfg.Seed},
		}
		for _, alg := range algs {
			start := time.Now()
			res, err := alg.Assign(context.Background(), game.NewState(g))
			if err != nil {
				return nil, fmt.Errorf("optgap seed %d %s: %w", seed, alg.Name(), err)
			}
			s.Points = append(s.Points, Point{
				X:          float64(seed),
				Algorithm:  alg.Name(),
				PayoffDiff: res.Summary.Difference,
				// AvgPayoff doubles as the scalarized score column for this
				// experiment so the pivot table shows the gap directly.
				AvgPayoff:  assign.Score(res.Summary.Payoffs, 1),
				CPUSeconds: time.Since(start).Seconds(),
				Iterations: res.Iterations,
			})
		}
	}
	return s, nil
}
