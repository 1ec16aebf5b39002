package experiment

import (
	"fmt"
	"math"

	"fairtask/internal/dataset"
	"fairtask/internal/model"
	"fairtask/internal/vdps"
)

func init() {
	registry["fig2"] = fig2EpsilonGM
	registry["fig3"] = fig3EpsilonSYN
	registry["fig4"] = fig4TasksGM
	registry["fig5"] = fig5TasksSYN
	registry["fig6"] = fig6WorkersGM
	registry["fig7"] = fig7WorkersSYN
	registry["fig8"] = fig8PointsGM
	registry["fig9"] = fig9PointsSYN
	registry["fig10"] = fig10ExpirySYN
	registry["fig11"] = fig11MaxDPSYN
}

// sweep runs the four algorithms at every x value over problems produced by
// make, with the given pruning threshold.
func sweep(cfg Config, s *Series, xs []float64, epsilon float64,
	make func(x float64) (*model.Problem, error)) error {
	for _, x := range xs {
		p, err := make(x)
		if err != nil {
			return fmt.Errorf("%s at %g: %w", s.Figure, x, err)
		}
		for _, alg := range algorithmSet(cfg, cfg.Seed) {
			pt, err := measureProblem(p, alg, vdps.Options{Epsilon: epsilon})
			if err != nil {
				return fmt.Errorf("%s at %g: %w", s.Figure, x, err)
			}
			pt.X = x
			s.Points = append(s.Points, pt)
		}
	}
	return nil
}

// epsilonSweep runs the four pruned algorithms at every epsilon, plus the
// "-W" unpruned variants. The unpruned runs do not depend on epsilon, so
// they are measured once and replicated across the x axis (the paper plots
// them as flat reference lines).
func epsilonSweep(cfg Config, s *Series, eps []float64,
	make func() (*model.Problem, error)) error {
	p, err := make()
	if err != nil {
		return err
	}
	for _, e := range eps {
		for _, alg := range algorithmSet(cfg, cfg.Seed) {
			pt, err := measureProblem(p, alg, vdps.Options{Epsilon: e})
			if err != nil {
				return fmt.Errorf("%s at eps=%g: %w", s.Figure, e, err)
			}
			pt.X = e
			s.Points = append(s.Points, pt)
		}
	}
	for _, alg := range algorithmSet(cfg, cfg.Seed) {
		pt, err := measureProblem(p, alg, vdps.Options{Epsilon: math.Inf(1)})
		if err != nil {
			return fmt.Errorf("%s unpruned: %w", s.Figure, err)
		}
		pt.Algorithm += "-W"
		for _, e := range eps {
			cp := pt
			cp.X = e
			s.Points = append(s.Points, cp)
		}
	}
	return nil
}

func fig2EpsilonGM(cfg Config) (*Series, error) {
	s := &Series{Figure: "fig2", Title: "Effect of epsilon (GM)", XLabel: "epsilon (km)"}
	err := epsilonSweep(cfg, s, []float64{0.2, 0.4, 0.6, 0.8, 1.0}, func() (*model.Problem, error) {
		in, err := dataset.GenerateGM(cfg.gmConfig())
		if err != nil {
			return nil, err
		}
		return asProblem(in), nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func fig3EpsilonSYN(cfg Config) (*Series, error) {
	s := &Series{Figure: "fig3", Title: "Effect of epsilon (SYN)", XLabel: "epsilon (km)"}
	err := epsilonSweep(cfg, s, []float64{0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4}, func() (*model.Problem, error) {
		return dataset.GenerateSYN(cfg.synConfig())
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func fig4TasksGM(cfg Config) (*Series, error) {
	s := &Series{Figure: "fig4", Title: "Effect of |S| (GM)", XLabel: "|S| (scaled)"}
	var xs []float64
	for _, v := range []int{100, 200, 300, 400, 500} {
		xs = append(xs, float64(cfg.gmScaled(v)))
	}
	err := sweep(cfg, s, xs, DefaultEpsilonGM,
		func(x float64) (*model.Problem, error) {
			c := cfg.gmConfig()
			c.Tasks = int(x)
			in, err := dataset.GenerateGM(c)
			if err != nil {
				return nil, err
			}
			return asProblem(in), nil
		})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func fig5TasksSYN(cfg Config) (*Series, error) {
	s := &Series{Figure: "fig5", Title: "Effect of |S| (SYN)", XLabel: "|S| (scaled)"}
	var xs []float64
	for _, v := range []int{25_000, 50_000, 75_000, 100_000, 125_000} {
		xs = append(xs, float64(cfg.scaled(v)))
	}
	err := sweep(cfg, s, xs, DefaultEpsilonSYN, func(x float64) (*model.Problem, error) {
		c := cfg.synConfig()
		c.Tasks = int(x)
		return dataset.GenerateSYN(c)
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func fig6WorkersGM(cfg Config) (*Series, error) {
	s := &Series{Figure: "fig6", Title: "Effect of |W| (GM)", XLabel: "|W| (scaled)"}
	var xs []float64
	for _, v := range []int{20, 40, 60, 80, 100} {
		xs = append(xs, float64(cfg.gmScaled(v)))
	}
	err := sweep(cfg, s, xs, DefaultEpsilonGM,
		func(x float64) (*model.Problem, error) {
			c := cfg.gmConfig()
			c.Workers = int(x)
			in, err := dataset.GenerateGM(c)
			if err != nil {
				return nil, err
			}
			return asProblem(in), nil
		})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func fig7WorkersSYN(cfg Config) (*Series, error) {
	s := &Series{Figure: "fig7", Title: "Effect of |W| (SYN)", XLabel: "|W| (scaled)"}
	var xs []float64
	for _, v := range []int{1_000, 2_000, 3_000, 4_000, 5_000} {
		xs = append(xs, float64(cfg.scaled(v)))
	}
	err := sweep(cfg, s, xs, DefaultEpsilonSYN, func(x float64) (*model.Problem, error) {
		c := cfg.synConfig()
		c.Workers = int(x)
		return dataset.GenerateSYN(c)
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func fig8PointsGM(cfg Config) (*Series, error) {
	s := &Series{Figure: "fig8", Title: "Effect of |DP| (GM)", XLabel: "|DP| (scaled)"}
	var xs []float64
	for _, v := range []int{20, 40, 60, 80, 100} {
		xs = append(xs, float64(cfg.gmScaled(v)))
	}
	err := sweep(cfg, s, xs, DefaultEpsilonGM,
		func(x float64) (*model.Problem, error) {
			c := cfg.gmConfig()
			c.DeliveryPoints = int(x)
			in, err := dataset.GenerateGM(c)
			if err != nil {
				return nil, err
			}
			return asProblem(in), nil
		})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func fig9PointsSYN(cfg Config) (*Series, error) {
	s := &Series{Figure: "fig9", Title: "Effect of |DP| (SYN)", XLabel: "|DP| (scaled)"}
	var xs []float64
	for _, v := range []int{3_000, 3_500, 4_000, 4_500, 5_000} {
		xs = append(xs, float64(cfg.scaled(v)))
	}
	err := sweep(cfg, s, xs, DefaultEpsilonSYN, func(x float64) (*model.Problem, error) {
		c := cfg.synConfig()
		c.DeliveryPoints = int(x)
		return dataset.GenerateSYN(c)
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func fig10ExpirySYN(cfg Config) (*Series, error) {
	s := &Series{Figure: "fig10", Title: "Effect of e (SYN)", XLabel: "e (hours)"}
	err := sweep(cfg, s, []float64{0.5, 1, 1.5, 2, 2.5}, DefaultEpsilonSYN,
		func(x float64) (*model.Problem, error) {
			c := cfg.synConfig()
			c.Expiry = x
			return dataset.GenerateSYN(c)
		})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func fig11MaxDPSYN(cfg Config) (*Series, error) {
	s := &Series{Figure: "fig11", Title: "Effect of maxDP (SYN)", XLabel: "maxDP"}
	err := sweep(cfg, s, []float64{1, 2, 3, 4}, DefaultEpsilonSYN,
		func(x float64) (*model.Problem, error) {
			c := cfg.synConfig()
			c.MaxDP = int(x)
			return dataset.GenerateSYN(c)
		})
	if err != nil {
		return nil, err
	}
	return s, nil
}
