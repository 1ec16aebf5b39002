package obs

import (
	"strings"
	"testing"
	"time"
)

func TestMetricsRecorderVDPS(t *testing.T) {
	reg := NewRegistry()
	rec := NewMetricsRecorder(reg)
	rec.RecordVDPS(VDPSEvent{Points: 6, Workers: 3, Subsets: 40, Pruned: 12, Candidates: 25, Elapsed: 3 * time.Millisecond})
	rec.RecordVDPS(VDPSEvent{Subsets: 10, Pruned: 2, Candidates: 5, Elapsed: time.Millisecond})

	if got := reg.Counter("fta_vdps_subsets_total", "").Value(); got != 50 {
		t.Errorf("subsets = %d, want 50", got)
	}
	if got := reg.Counter("fta_vdps_pruned_total", "").Value(); got != 14 {
		t.Errorf("pruned = %d, want 14", got)
	}
	if got := reg.Counter("fta_vdps_candidates_total", "").Value(); got != 30 {
		t.Errorf("candidates = %d, want 30", got)
	}
	if got := reg.Histogram("fta_vdps_generation_seconds", "", DefBuckets).Count(); got != 2 {
		t.Errorf("generation observations = %d, want 2", got)
	}
}

func TestMetricsRecorderStrategyChanges(t *testing.T) {
	reg := NewRegistry()
	rec := NewMetricsRecorder(reg)
	rec.RecordSolve(SolveEvent{Algorithm: "FGT", Iterations: 3, Switches: 4})
	rec.RecordSolve(SolveEvent{Algorithm: "FGT", Iterations: 2, Switches: 1})

	alg := L("algorithm", "FGT")
	if got := reg.Counter("fta_solve_strategy_changes_total", "", alg).Value(); got != 5 {
		t.Errorf("strategy changes = %d, want 5", got)
	}
}

// TestMetricsRecorderSolvePayoffHistograms covers the per-solve payoff
// distributions that replaced the old last-write-wins gauges: concurrent
// per-center solves each contribute one observation instead of clobbering a
// single value.
func TestMetricsRecorderSolvePayoffHistograms(t *testing.T) {
	reg := NewRegistry()
	rec := NewMetricsRecorder(reg)
	rec.RecordSolve(SolveEvent{Algorithm: "FGT", Iterations: 5, Difference: 1.25, Average: 7.5, Potential: 11})
	rec.RecordSolve(SolveEvent{Algorithm: "FGT", Iterations: 3, Difference: 2.5, Average: 7, Potential: 9})
	rec.RecordSolve(SolveEvent{Algorithm: "GTA", Iterations: 0, Difference: 4, Average: 6})

	alg := L("algorithm", "FGT")
	diff := reg.Histogram("fta_solve_payoff_difference", "", PayoffBuckets, alg)
	if diff.Count() != 2 || diff.Sum() != 3.75 {
		t.Errorf("payoff difference: count %d sum %v, want 2/3.75", diff.Count(), diff.Sum())
	}
	avg := reg.Histogram("fta_solve_average_payoff", "", PayoffBuckets, alg)
	if avg.Count() != 2 || avg.Sum() != 14.5 {
		t.Errorf("average payoff: count %d sum %v, want 2/14.5", avg.Count(), avg.Sum())
	}
	pot := reg.Histogram("fta_solve_potential", "", PayoffBuckets, alg)
	if pot.Count() != 2 || pot.Sum() != 20 {
		t.Errorf("potential: count %d sum %v, want 2/20", pot.Count(), pot.Sum())
	}
	// Non-iterative baselines have no potential; their zero must not be
	// observed.
	gta := reg.Histogram("fta_solve_potential", "", PayoffBuckets, L("algorithm", "GTA"))
	if gta.Count() != 0 {
		t.Errorf("GTA potential observations = %d, want 0", gta.Count())
	}
}

// TestSeedAlgorithms verifies that seeding makes algorithm-labeled families
// visible on the first exposition, before any solve ran.
func TestSeedAlgorithms(t *testing.T) {
	reg := NewRegistry()
	rec := NewMetricsRecorder(reg)
	rec.SeedAlgorithms("FGT", "IEGT")
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`fta_solve_payoff_difference_count{algorithm="FGT"} 0`,
		`fta_solve_average_payoff_count{algorithm="IEGT"} 0`,
		`fta_solve_potential_count{algorithm="FGT"} 0`,
		`fta_solve_strategy_changes_total{algorithm="IEGT"} 0`,
		`fta_solve_total{algorithm="FGT",converged="true"} 0`,
		`fta_solve_total{algorithm="FGT",converged="false"} 0`,
		`fta_assign_total{algorithm="IEGT"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("seeded exposition missing %q", want)
		}
	}
}

func TestMetricsRecorderSolveAndAssign(t *testing.T) {
	reg := NewRegistry()
	rec := NewMetricsRecorder(reg)
	if rec.Registry() != reg {
		t.Fatal("Registry() should return the construction registry")
	}
	rec.RecordSolve(SolveEvent{Algorithm: "FGT", Workers: 3, Points: 6, Iterations: 7, Converged: true, Elapsed: time.Millisecond})
	rec.RecordSolve(SolveEvent{Algorithm: "IEGT", Iterations: 120, Converged: false, Elapsed: time.Millisecond})
	rec.RecordAssign(AssignEvent{Algorithm: "FGT", Centers: 4, Workers: 12, Points: 24, Parallelism: 2, Elapsed: 5 * time.Millisecond})

	if got := reg.Histogram("fta_solve_iterations", "", CountBuckets).Count(); got != 2 {
		t.Errorf("iteration observations = %d, want 2", got)
	}
	if got := reg.Counter("fta_solve_total", "", L("algorithm", "FGT"), L("converged", "true")).Value(); got != 1 {
		t.Errorf("fta_solve_total{FGT,true} = %d, want 1", got)
	}
	if got := reg.Counter("fta_assign_centers_total", "").Value(); got != 4 {
		t.Errorf("assign centers = %d, want 4", got)
	}
	if got := reg.Gauge("fta_assign_parallelism", "").Value(); got != 2 {
		t.Errorf("parallelism = %v, want 2", got)
	}
	if got := reg.Counter("fta_assign_workers_total", "").Value(); got != 12 {
		t.Errorf("assign workers = %d, want 12", got)
	}
}

// TestMetricsRecorderExposesRequiredFamilies guards the metric names promised
// in the docs: a fresh recorder's first exposition must already list them.
func TestMetricsRecorderExposesRequiredFamilies(t *testing.T) {
	reg := NewRegistry()
	NewMetricsRecorder(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		"fta_vdps_subsets_total",
		"fta_vdps_pruned_total",
		"fta_vdps_candidates_total",
		"fta_vdps_generation_seconds",
		"fta_solve_iterations",
		"fta_solve_seconds",
		"fta_assign_seconds",
		"fta_assign_centers_total",
		"fta_assign_parallelism",
	} {
		if !strings.Contains(out, "# TYPE "+name+" ") {
			t.Errorf("fresh exposition missing family %s", name)
		}
	}
}
