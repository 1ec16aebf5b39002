// Benchmarks regenerating every figure of the paper's evaluation section
// (one Benchmark per figure; see DESIGN.md §5 for the index) plus
// micro-benchmarks of the core components and the ablations called out in
// DESIGN.md. Figure benches run the full sweep per iteration at a reduced
// scale (SYNScale 50, GMScale 2) so the whole suite finishes on a laptop;
// use cmd/fta sweep -scale 10 (or 1) for larger runs.
package fairtask_test

import (
	"fmt"
	"io"
	"math"
	"testing"

	"fairtask"
	"fairtask/internal/experiment"
)

// benchConfig is the reduced-scale configuration for figure benches.
func benchConfig() experiment.Config {
	return experiment.Config{
		Seed:           1,
		SYNScale:       50,
		GMScale:        2,
		MPTANodeBudget: 50_000,
	}
}

// runFigure executes a figure sweep b.N times and reports a few headline
// metrics from the last run.
func runFigure(b *testing.B, name string) {
	b.Helper()
	var last *experiment.Series
	for i := 0; i < b.N; i++ {
		s, err := experiment.Run(name, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	if last != nil {
		last.WriteTables(io.Discard)
		reportSeries(b, last)
	}
}

// reportSeries attaches the headline numbers (payoff difference of each
// algorithm at the last x) as custom benchmark metrics.
func reportSeries(b *testing.B, s *experiment.Series) {
	b.Helper()
	xs := map[float64]bool{}
	maxX := math.Inf(-1)
	for _, p := range s.Points {
		if !xs[p.X] {
			xs[p.X] = true
		}
		if p.X > maxX {
			maxX = p.X
		}
	}
	for _, p := range s.Points {
		if p.X == maxX {
			b.ReportMetric(p.PayoffDiff, fmt.Sprintf("Pdif_%s", p.Algorithm))
		}
	}
}

// Figure benches — one per evaluation figure (Table I parameters, scaled).

func BenchmarkFig2EpsilonGM(b *testing.B)  { runFigure(b, "fig2") }
func BenchmarkFig3EpsilonSYN(b *testing.B) { runFigure(b, "fig3") }
func BenchmarkFig4TasksGM(b *testing.B)    { runFigure(b, "fig4") }
func BenchmarkFig5TasksSYN(b *testing.B)   { runFigure(b, "fig5") }
func BenchmarkFig6WorkersGM(b *testing.B)  { runFigure(b, "fig6") }
func BenchmarkFig7WorkersSYN(b *testing.B) { runFigure(b, "fig7") }
func BenchmarkFig8PointsGM(b *testing.B)   { runFigure(b, "fig8") }
func BenchmarkFig9PointsSYN(b *testing.B)  { runFigure(b, "fig9") }
func BenchmarkFig10ExpirySYN(b *testing.B) { runFigure(b, "fig10") }
func BenchmarkFig11MaxDPSYN(b *testing.B)  { runFigure(b, "fig11") }

// BenchmarkFig12Convergence traces FGT and IEGT to equilibrium and reports
// the iteration counts as metrics.
func BenchmarkFig12Convergence(b *testing.B) {
	var last *experiment.Series
	for i := 0; i < b.N; i++ {
		s, err := experiment.Run("fig12", benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	iters := map[string]float64{}
	for _, p := range last.Points {
		if p.X > iters[p.Algorithm] {
			iters[p.Algorithm] = p.X
		}
	}
	for alg, n := range iters {
		b.ReportMetric(n, fmt.Sprintf("iters_%s", alg))
	}
}

// Component micro-benchmarks.

func benchGM(b *testing.B, tasks, workers, points int) *fairtask.Instance {
	b.Helper()
	in, err := fairtask.GenerateGM(fairtask.GMConfig{
		Seed: 1, Tasks: tasks, Workers: workers, DeliveryPoints: points,
	})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

func benchSolve(b *testing.B, alg fairtask.Algorithm, eps float64) {
	b.Helper()
	in := benchGM(b, 200, 40, 60)
	opt := fairtask.Options{Algorithm: alg, Seed: 1, VDPS: fairtask.VDPSOptions{Epsilon: eps}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fairtask.Solve(in, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveGTA(b *testing.B)  { benchSolve(b, fairtask.AlgGTA, 0.6) }
func BenchmarkSolveMPTA(b *testing.B) { benchSolve(b, fairtask.AlgMPTA, 0.6) }
func BenchmarkSolveFGT(b *testing.B)  { benchSolve(b, fairtask.AlgFGT, 0.6) }
func BenchmarkSolveIEGT(b *testing.B) { benchSolve(b, fairtask.AlgIEGT, 0.6) }

// benchSolveGM solves the GM instance of seed 1 with the given tasks /
// workers / points at ε 0.6 and solver seed 1.
func benchSolveGM(b *testing.B, alg fairtask.Algorithm, tasks, workers, points int) {
	b.Helper()
	in := benchGM(b, tasks, workers, points)
	opt := fairtask.Options{Algorithm: alg, Seed: 1, VDPS: fairtask.VDPSOptions{Epsilon: 0.6}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fairtask.Solve(in, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// The W200 solves (GM 1000 tasks / 200 workers / 150 points, the instance
// of servebench's solve-w200) are dominated by VDPS generation and state
// build: FGT converges in one round with no switch. BenchmarkSolveFGTW100 (GM 1000 / 100 / 150) is the gated solve
// whose game moves: 3 rounds, 42 switches, 29 multi-point routes at the
// end. See docs/PERFORMANCE.md.
func BenchmarkSolveFGTW200(b *testing.B)  { benchSolveGM(b, fairtask.AlgFGT, 1000, 200, 150) }
func BenchmarkSolveIEGTW200(b *testing.B) { benchSolveGM(b, fairtask.AlgIEGT, 1000, 200, 150) }
func BenchmarkSolveFGTW100(b *testing.B)  { benchSolveGM(b, fairtask.AlgFGT, 1000, 100, 150) }

// Ablation: VDPS generation with and without distance-constrained pruning
// (the paper's claim is pruning preserves results while cutting CPU time).
func BenchmarkVDPSGenPruned(b *testing.B) {
	in := benchGM(b, 200, 40, 60)
	opt := fairtask.Options{Algorithm: fairtask.AlgGTA, VDPS: fairtask.VDPSOptions{Epsilon: 0.6}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fairtask.Solve(in, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVDPSGenUnpruned(b *testing.B) {
	in := benchGM(b, 200, 40, 60)
	opt := fairtask.Options{Algorithm: fairtask.AlgGTA}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fairtask.Solve(in, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: FGT early termination via the utility-gain threshold (paper's
// future-work "early termination of iterations").
func BenchmarkFGTEarlyTermination(b *testing.B) {
	in := benchGM(b, 200, 40, 60)
	opt := fairtask.Options{
		Algorithm:      fairtask.AlgFGT,
		Seed:           1,
		EpsilonUtility: 0.01,
		VDPS:           fairtask.VDPSOptions{Epsilon: 0.6},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fairtask.Solve(in, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// Payoff difference computation at population scale.
func BenchmarkPayoffDifference(b *testing.B) {
	p := make([]float64, 2000)
	for i := range p {
		p[i] = float64(i%37) / 7
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fairtask.PayoffDifference(p)
	}
}

// Dataset generation throughput.
func BenchmarkGenerateSYN(b *testing.B) {
	cfg := fairtask.SYNConfig{Seed: 1, Centers: 5, Tasks: 10_000, Workers: 200, DeliveryPoints: 500}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fairtask.GenerateSYN(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateGM(b *testing.B) {
	cfg := fairtask.GMConfig{Seed: 1, Tasks: 200, Workers: 40, DeliveryPoints: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fairtask.GenerateGM(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Platform simulation round throughput.
func BenchmarkSimulate(b *testing.B) {
	p, err := fairtask.GenerateSYN(fairtask.SYNConfig{
		Seed: 1, Centers: 2, Tasks: 400, Workers: 20, DeliveryPoints: 40,
	})
	if err != nil {
		b.Fatal(err)
	}
	solver, err := fairtask.NewAssigner(fairtask.Options{Algorithm: fairtask.AlgGTA})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fairtask.Simulate(p, fairtask.SimConfig{Epochs: 4, Solver: solver}); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benches (DESIGN.md §3 design choices), driven through the
// experiment registry so "go test -bench Ablation" reproduces the series.

func runAblation(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Run(name, benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationIndex(b *testing.B)         { runAblation(b, "ablation-index") }
func BenchmarkAblationDecomposition(b *testing.B) { runAblation(b, "ablation-decomposition") }
func BenchmarkAblationEarlyTerm(b *testing.B)     { runAblation(b, "ablation-earlyterm") }
func BenchmarkAblationOrder(b *testing.B)         { runAblation(b, "ablation-order") }
func BenchmarkAblationMutation(b *testing.B)      { runAblation(b, "ablation-mutation") }
