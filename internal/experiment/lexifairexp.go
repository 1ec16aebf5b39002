package experiment

import (
	"fmt"

	"fairtask/internal/assign"
	"fairtask/internal/dataset"
	"fairtask/internal/evo"
	"fairtask/internal/game"
	"fairtask/internal/vdps"
)

func init() {
	registry["lexifair"] = lexifairCompare
}

// lexifairCompare contrasts the leximin LEXIFAIR assigner with the paper's
// equilibrium algorithms (FGT, IEGT) and the max-min heuristic MMTA on
// small GM workloads where the exact lexicographic solve is cheap. The
// series reports, per instance seed, P_dif, the average payoff, the minimum
// payoff (the objective LEXIFAIR optimizes first) and the solve time —
// the egalitarian-vs-inequity-aversion trade-off discussed in
// docs/ASSIGNERS.md.
func lexifairCompare(cfg Config) (*Series, error) {
	s := &Series{
		Figure: "lexifair",
		Title:  "Leximin LEXIFAIR vs equilibrium and max-min baselines",
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
		algs := []assign.Assigner{
			game.Options{Seed: cfg.Seed},
			evo.Options{Seed: cfg.Seed},
			assign.MMTA{},
			assign.Lexifair{},
		}
		vopt := vdps.Options{Epsilon: DefaultEpsilonGM, MaxSize: 2}
		for _, alg := range algs {
			pt, err := measureProblem(asProblem(in), alg, vopt, cfg.Parallelism)
			if err != nil {
				return nil, fmt.Errorf("lexifair seed %d: %w", seed, err)
			}
			pt.X = float64(seed)
			s.Points = append(s.Points, pt)
		}
	}
	return s, nil
}
