package experiment

import (
	"context"
	"fairtask/internal/dataset"
	"fairtask/internal/evo"
	"fairtask/internal/game"
	"fairtask/internal/vdps"
)

func init() {
	registry["fig12"] = fig12Convergence
}

// fig12Convergence reproduces Figure 12: the payoff difference (and the
// number of strategy changes) per iteration for FGT and IEGT on the default
// GM workload, showing both algorithms converging to an equilibrium. The
// series' X is the iteration index; PayoffDiff/AvgPayoff are the metrics
// after that round; Iterations carries the per-round change count.
func fig12Convergence(cfg Config) (*Series, error) {
	s := &Series{Figure: "fig12", Title: "Convergence of FGT and IEGT", XLabel: "iteration"}

	in, err := dataset.GenerateGM(cfg.gmConfig())
	if err != nil {
		return nil, err
	}
	g, err := vdps.Generate(in, vdps.Options{Epsilon: DefaultEpsilonGM})
	if err != nil {
		return nil, err
	}

	fgt, err := game.FGT(context.Background(), game.NewState(g), game.Options{Seed: cfg.Seed, Trace: true})
	if err != nil {
		return nil, err
	}
	for _, it := range fgt.Trace {
		s.Points = append(s.Points, Point{
			X:          float64(it.Iteration),
			Algorithm:  "FGT",
			PayoffDiff: it.PayoffDiff,
			AvgPayoff:  it.AvgPayoff,
			Iterations: it.Changes,
		})
	}

	iegt, err := evo.IEGT(context.Background(), game.NewState(g), evo.Options{Seed: cfg.Seed, Trace: true})
	if err != nil {
		return nil, err
	}
	for _, it := range iegt.Trace {
		s.Points = append(s.Points, Point{
			X:          float64(it.Iteration),
			Algorithm:  "IEGT",
			PayoffDiff: it.PayoffDiff,
			AvgPayoff:  it.AvgPayoff,
			Iterations: it.Changes,
		})
	}
	return s, nil
}
