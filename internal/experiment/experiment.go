// Package experiment reproduces the paper's evaluation (§VII): a registry of
// runners, one per figure, each sweeping one parameter of Table I and
// measuring payoff difference, average payoff and CPU time for the four
// algorithms (MPTA, GTA, FGT, IEGT) — plus the unpruned "-W" variants for
// the ε experiments and the convergence traces of Figure 12.
//
// The SYN workloads are scaled down by Config.SYNScale (default 10) relative
// to the paper's 2x Xeon Gold testbed: all of |S|, |W|, |DP| and the number
// of distribution centers shrink by the same factor, which preserves the
// per-center density — and therefore the curve shapes — while fitting a
// single-core run. See EXPERIMENTS.md for paper-vs-measured values.
package experiment

import (
	"fmt"
	"sort"
	"time"

	"fairtask/internal/assign"
	"fairtask/internal/dataset"
	"fairtask/internal/evo"
	"fairtask/internal/game"
	"fairtask/internal/model"
	"fairtask/internal/payoff"
	"fairtask/internal/platform"
	"fairtask/internal/vdps"
)

// Config configures a figure run.
type Config struct {
	// Seed drives dataset generation and randomized algorithms.
	Seed int64
	// SYNScale divides the paper's SYN sizes (tasks, workers, delivery
	// points, centers). Zero means 10. One reproduces the paper's scale.
	SYNScale int
	// GMScale divides the paper's GM sizes. Zero means 1 — GM is already
	// laptop-sized; tests and quick benches raise it.
	GMScale int
	// MPTANodeBudget bounds the MPTA search per instance. Zero means the
	// sweep default of 200000 (the full default of 2e6 is used only when
	// explicitly requested).
	MPTANodeBudget int
}

func (c Config) withDefaults() Config {
	if c.SYNScale <= 0 {
		c.SYNScale = 10
	}
	if c.GMScale <= 0 {
		c.GMScale = 1
	}
	if c.MPTANodeBudget <= 0 {
		c.MPTANodeBudget = 200_000
	}
	return c
}

// Point is one measurement: algorithm variant at one x value.
type Point struct {
	// X is the swept parameter value actually used (after scaling).
	X float64
	// Algorithm is "MPTA", "GTA", "FGT", "IEGT" or a "-W" variant.
	Algorithm string
	// PayoffDiff is P_dif over the full worker population.
	PayoffDiff float64
	// AvgPayoff is the mean worker payoff.
	AvgPayoff float64
	// MinPayoff is the smallest worker payoff — the egalitarian objective
	// the lexifair comparison ranks algorithms by.
	MinPayoff float64
	// CPUSeconds is the wall-clock solve time (VDPS generation included).
	CPUSeconds float64
	// Iterations reports game rounds (0 for one-shot baselines).
	Iterations int
}

// Series is the output of one figure runner.
type Series struct {
	// Figure is the registry key, e.g. "fig3".
	Figure string
	// Title describes the experiment.
	Title string
	// XLabel names the swept parameter.
	XLabel string
	// Points holds every measurement, ordered by (X, Algorithm).
	Points []Point
}

// Runner produces the series for one figure.
type Runner func(cfg Config) (*Series, error)

// registry maps figure keys to runners; populated in figures.go and
// convergence.go.
var registry = map[string]Runner{}

// Names returns the registered figure keys in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes the named figure.
func Run(name string, cfg Config) (*Series, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown figure %q (have %v)", name, Names())
	}
	return r(cfg.withDefaults())
}

// algorithmSet returns the paper's four algorithms with sweep-appropriate
// budgets.
func algorithmSet(cfg Config, seed int64) []assign.Assigner {
	return []assign.Assigner{
		assign.MPTA{NodeBudget: cfg.MPTANodeBudget},
		assign.GTA{},
		game.Options{Seed: seed},
		evo.Options{Seed: seed},
	}
}

// measureProblem solves a multi-center problem with one algorithm and
// returns the aggregated measurement.
func measureProblem(p *model.Problem, alg assign.Assigner, vopt vdps.Options) (Point, error) {
	start := time.Now()
	res, err := platform.Assign(p, alg, platform.Options{VDPS: vopt})
	if err != nil {
		return Point{}, fmt.Errorf("%s: %w", alg.Name(), err)
	}
	iters := 0
	for _, r := range res.PerCenter {
		if r.Iterations > iters {
			iters = r.Iterations
		}
	}
	return Point{
		Algorithm:  alg.Name(),
		PayoffDiff: res.Difference,
		AvgPayoff:  res.Average,
		MinPayoff:  payoff.MinPayoff(res.Payoffs),
		CPUSeconds: time.Since(start).Seconds(),
		Iterations: iters,
	}, nil
}

// asProblem wraps a single instance for the shared measurement path.
func asProblem(in *model.Instance) *model.Problem {
	return &model.Problem{Instances: []model.Instance{*in}}
}

// scaled divides v by the config's SYN scale, with a floor of 1.
func (c Config) scaled(v int) int {
	s := v / c.SYNScale
	if s < 1 {
		return 1
	}
	return s
}

// synConfig returns the Table I default SYN workload at the config's scale.
func (c Config) synConfig() dataset.SYNConfig {
	return dataset.SYNConfig{
		Seed:           c.Seed,
		Centers:        c.scaled(50),
		Tasks:          c.scaled(100_000),
		Workers:        c.scaled(2_000),
		DeliveryPoints: c.scaled(5_000),
		Expiry:         2,
		MaxDP:          3,
	}
}

// gmScaled divides v by the config's GM scale, with a floor of 1.
func (c Config) gmScaled(v int) int {
	s := v / c.GMScale
	if s < 1 {
		return 1
	}
	return s
}

// gmConfig returns the Table I default GM workload at the config's GM scale.
func (c Config) gmConfig() dataset.GMConfig {
	return dataset.GMConfig{
		Seed:           c.Seed,
		Tasks:          c.gmScaled(200),
		Workers:        c.gmScaled(40),
		DeliveryPoints: c.gmScaled(100),
	}
}

// Default pruning thresholds (underlined in Table I).
const (
	// DefaultEpsilonGM is the GM distance threshold in km.
	DefaultEpsilonGM = 0.6
	// DefaultEpsilonSYN is the SYN distance threshold in km.
	DefaultEpsilonSYN = 2
)
