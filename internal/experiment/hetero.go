package experiment

import (
	"fmt"

	"fairtask/internal/dataset"
	"fairtask/internal/vdps"
)

func init() {
	registry["hetero"] = heteroFleet
}

// heteroFleet measures the effect of fleet speed heterogeneity (the
// Worker.Speed extension) on fairness: workers draw their speed from
// {5/f, 5·f} km/h, so x = f = 1 is the paper's homogeneous fleet and larger
// f mixes increasingly unequal vehicles. Expectation: payoff difference
// grows with f for the fairness-oblivious baselines (fast workers earn
// proportionally more) while the game-theoretic methods compensate
// partially — they can redistribute sets, but cannot equalize physics.
func heteroFleet(cfg Config) (*Series, error) {
	s := &Series{
		Figure: "hetero",
		Title:  "Effect of fleet speed heterogeneity",
		XLabel: "speed spread factor",
	}
	for _, f := range []float64{1, 1.5, 2, 3} {
		c := cfg.synConfig()
		if f > 1 {
			c.SpeedChoices = []float64{5 / f, 5 * f}
		}
		p, err := dataset.GenerateSYN(c)
		if err != nil {
			return nil, err
		}
		for _, alg := range algorithmSet(cfg, cfg.Seed) {
			pt, err := measureProblem(p, alg, vdps.Options{Epsilon: DefaultEpsilonSYN})
			if err != nil {
				return nil, fmt.Errorf("hetero at f=%g: %w", f, err)
			}
			pt.X = f
			s.Points = append(s.Points, pt)
		}
	}
	return s, nil
}
