package platform

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"fairtask/internal/assign"
	"fairtask/internal/dataset"
	"fairtask/internal/game"
	"fairtask/internal/model"
	"fairtask/internal/obs"
	"fairtask/internal/payoff"
	"fairtask/internal/vdps"
)

func smallProblem(t *testing.T, centers int) *model.Problem {
	t.Helper()
	p, err := dataset.GenerateSYN(dataset.SYNConfig{
		Seed: 42, Centers: centers,
		Tasks: centers * 30, Workers: centers * 4, DeliveryPoints: centers * 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAssignAggregates(t *testing.T) {
	p := smallProblem(t, 4)
	res, err := Assign(p, assign.GTA{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCenter) != 4 {
		t.Fatalf("per-center results = %d", len(res.PerCenter))
	}
	if len(res.Payoffs) != p.WorkerCount() {
		t.Errorf("payoffs = %d, want %d", len(res.Payoffs), p.WorkerCount())
	}
	if math.Abs(res.Difference-payoff.Difference(res.Payoffs)) > 1e-12 {
		t.Error("aggregate difference inconsistent")
	}
	if math.Abs(res.Average-payoff.Average(res.Payoffs)) > 1e-12 {
		t.Error("aggregate average inconsistent")
	}
	for i, r := range res.PerCenter {
		if err := r.Assignment.Validate(&p.Instances[i]); err != nil {
			t.Errorf("center %d assignment invalid: %v", i, err)
		}
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not measured")
	}
}

func TestAssignParallelMatchesSerial(t *testing.T) {
	p := smallProblem(t, 6)
	serial, err := Assign(p, assign.GTA{}, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Assign(p, assign.GTA{}, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(serial.Difference-parallel.Difference) > 1e-12 ||
		math.Abs(serial.Average-parallel.Average) > 1e-12 {
		t.Error("parallel solve changed the result")
	}
}

// TestAssignParallelismGauge pins fta_assign_parallelism to the concurrency
// a solve could use: the fan-out bound capped by the centers with workers,
// so a one-center solve reports 1 whatever the bound.
func TestAssignParallelismGauge(t *testing.T) {
	cases := []struct {
		centers, workerless, par int
		want                     float64
	}{
		{centers: 1, par: 4, want: 1},
		{centers: 3, par: 4, want: 3},
		{centers: 3, workerless: 1, par: 4, want: 2},
		{centers: 6, par: 2, want: 2},
	}
	for _, c := range cases {
		p := smallProblem(t, c.centers)
		for i := 0; i < c.workerless; i++ {
			p.Instances[i].Workers = nil
		}
		reg := obs.NewRegistry()
		opt := Options{Parallelism: c.par, Recorder: obs.NewMetricsRecorder(reg)}
		if _, err := Assign(p, assign.GTA{}, opt); err != nil {
			t.Fatal(err)
		}
		if got := reg.Gauge("fta_assign_parallelism", "").Value(); got != c.want {
			t.Errorf("%d centers (%d workerless), par %d: fta_assign_parallelism = %v, want %v",
				c.centers, c.workerless, c.par, got, c.want)
		}
	}
}

func TestAssignEmptyProblem(t *testing.T) {
	if _, err := Assign(&model.Problem{}, assign.GTA{}, Options{}); err != ErrNoInstances {
		t.Errorf("err = %v, want ErrNoInstances", err)
	}
}

func TestAssignCenterWithoutWorkers(t *testing.T) {
	p := smallProblem(t, 2)
	p.Instances[1].Workers = nil
	res, err := Assign(p, assign.GTA{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCenter[1].Assignment.Routes) != 0 {
		t.Error("workerless center should yield empty assignment")
	}
}

func TestAssignPropagatesVDPSLimit(t *testing.T) {
	p := smallProblem(t, 2)
	_, err := Assign(p, assign.GTA{}, Options{VDPS: vdps.Options{MaxSets: 1}})
	if err == nil {
		t.Error("expected candidate limit error to propagate")
	}
}

func TestSimulateBasics(t *testing.T) {
	p := smallProblem(t, 2)
	rep, err := Simulate(p, SimConfig{
		Epochs:      4,
		EpochLength: 0.5,
		Solver:      assign.GTA{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != 4 {
		t.Fatalf("epochs = %d", len(rep.Epochs))
	}
	if len(rep.Earnings) != p.WorkerCount() {
		t.Errorf("earnings entries = %d, want %d", len(rep.Earnings), p.WorkerCount())
	}
	// Conservation: a task is completed at most once and never both
	// completed and expired.
	if rep.CompletedTasks+rep.ExpiredTasks > p.TaskCount() {
		t.Errorf("completed %d + expired %d exceed total %d",
			rep.CompletedTasks, rep.ExpiredTasks, p.TaskCount())
	}
	if rep.CompletedTasks == 0 {
		t.Error("simulation completed no tasks")
	}
	for i, e := range rep.Earnings {
		if e > 0 && rep.TravelTime[i] == 0 {
			t.Errorf("worker %d earned %g with zero travel", i, e)
		}
	}
}

func TestSimulateWorkersGoOffline(t *testing.T) {
	p := smallProblem(t, 1)
	rep, err := Simulate(p, SimConfig{
		Epochs:      3,
		EpochLength: 0.1, // shorter than any route: assigned workers stay busy
		Solver:      assign.GTA{},
	})
	if err != nil {
		t.Fatal(err)
	}
	first := rep.Epochs[0]
	second := rep.Epochs[1]
	if first.AssignedWorkers == 0 {
		t.Skip("nothing assigned in epoch 0")
	}
	if second.OnlineWorkers >= first.OnlineWorkers {
		t.Errorf("online workers did not drop: %d -> %d",
			first.OnlineWorkers, second.OnlineWorkers)
	}
}

func TestSimulateTaskSource(t *testing.T) {
	p := smallProblem(t, 1)
	// Strip all initial tasks; inject fresh ones each epoch.
	for i := range p.Instances[0].Points {
		p.Instances[0].Points[i].Tasks = nil
	}
	nextID := 100000
	rep, err := Simulate(p, SimConfig{
		Epochs: 3,
		Solver: assign.GTA{},
		TaskSource: func(epoch int, now float64, prob *model.Problem) {
			in := &prob.Instances[0]
			for i := range in.Points {
				in.Points[i].Tasks = append(in.Points[i].Tasks, model.Task{
					ID: nextID, Point: i, Expiry: now + 2, Reward: 1,
				})
				nextID++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CompletedTasks == 0 {
		t.Error("no injected tasks completed")
	}
}

func TestSimulateExpiry(t *testing.T) {
	p := smallProblem(t, 1)
	// Remove all workers: every task must eventually expire, none complete.
	p.Instances[0].Workers = nil
	total := p.TaskCount()
	rep, err := Simulate(p, SimConfig{
		Epochs:      6,
		EpochLength: 1,
		Solver:      assign.GTA{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CompletedTasks != 0 {
		t.Errorf("completed %d tasks without workers", rep.CompletedTasks)
	}
	// Default SYN expiry is 2h; after 6 epochs everything has expired.
	if rep.ExpiredTasks != total {
		t.Errorf("expired %d, want all %d", rep.ExpiredTasks, total)
	}
}

func TestSimulateRequiresSolver(t *testing.T) {
	p := smallProblem(t, 1)
	if _, err := Simulate(p, SimConfig{}); err != ErrNoSolver {
		t.Errorf("err = %v, want ErrNoSolver", err)
	}
	if _, err := Simulate(&model.Problem{}, SimConfig{Solver: assign.GTA{}}); err != ErrNoInstances {
		t.Errorf("err = %v, want ErrNoInstances", err)
	}
}

func TestSimulateDoesNotMutateInput(t *testing.T) {
	p := smallProblem(t, 1)
	before := p.TaskCount()
	if _, err := Simulate(p, SimConfig{Epochs: 2, Solver: assign.GTA{}}); err != nil {
		t.Fatal(err)
	}
	if p.TaskCount() != before {
		t.Errorf("input problem mutated: %d -> %d tasks", before, p.TaskCount())
	}
}

// Property: over random configurations, the simulation conserves tasks —
// completed + expired + still-live = initially-present + injected — and all
// earnings trace back to completed task rewards (unit rewards here).
func TestSimulateConservation(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		p, err := dataset.GenerateSYN(dataset.SYNConfig{
			Seed: 100 + seed, Centers: 2,
			Tasks: 80, Workers: 10, DeliveryPoints: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		injected := 0
		rep, err := Simulate(p, SimConfig{
			Epochs:      4,
			EpochLength: 0.8,
			Solver:      assign.GTA{},
			TaskSource: func(epoch int, now float64, prob *model.Problem) {
				in := &prob.Instances[0]
				for i := range in.Points {
					in.Points[i].Tasks = append(in.Points[i].Tasks, model.Task{
						ID: 1<<20 + injected, Point: i, Expiry: now + 1.5, Reward: 1,
					})
					injected++
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		total := p.TaskCount() + injected
		if rep.CompletedTasks+rep.ExpiredTasks > total {
			t.Errorf("seed %d: completed %d + expired %d > total %d",
				seed, rep.CompletedTasks, rep.ExpiredTasks, total)
		}
		var earned float64
		for _, e := range rep.Earnings {
			earned += e
		}
		if math.Abs(earned-float64(rep.CompletedTasks)) > 1e-6 {
			t.Errorf("seed %d: earnings %g != completed unit-reward tasks %d",
				seed, earned, rep.CompletedTasks)
		}
	}
}

// Workers rejoin the pool at their route's final delivery point, not at
// their original location.
func TestSimulateWorkersMoveWithRoutes(t *testing.T) {
	p := smallProblem(t, 1)
	original := make([]model.Worker, len(p.Instances[0].Workers))
	copy(original, p.Instances[0].Workers)

	// Two epochs with a long gap so round-0 workers are online again in
	// round 1; if anyone was assigned in round 0, some worker's snapshot
	// location in round 1 must differ from its original.
	moved := false
	_, err := Simulate(p, SimConfig{
		Epochs:      2,
		EpochLength: 10, // longer than any route
		Solver:      checkLocSolver{inner: assign.GTA{}, original: original, moved: &moved},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Error("no worker position changed between epochs")
	}
}

// checkLocSolver records whether any worker's location differs from the
// original fleet positions when the solver sees the snapshot.
type checkLocSolver struct {
	inner    assign.Assigner
	original []model.Worker
	moved    *bool
}

func (c checkLocSolver) Name() string { return c.inner.Name() }

func (c checkLocSolver) Assign(ctx context.Context, g *vdps.Generator) (*game.Result, error) {
	in := g.Instance()
	for _, w := range in.Workers {
		for _, o := range c.original {
			if w.ID == o.ID && w.Loc != o.Loc {
				*c.moved = true
			}
		}
	}
	return c.inner.Assign(ctx, g)
}

func TestAssignContextCancelled(t *testing.T) {
	p := smallProblem(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AssignContext(ctx, p, assign.GTA{}, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// A live context behaves like Assign.
	res, err := AssignContext(context.Background(), p, assign.GTA{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCenter) != 4 {
		t.Errorf("per-center = %d", len(res.PerCenter))
	}
}

// BenchmarkPlatformBatch is the batch benchmark behind BENCH_platform.json:
// 16 small independent centers fanned out per call over par goroutines.
func BenchmarkPlatformBatch(b *testing.B) {
	p, err := dataset.GenerateSYN(dataset.SYNConfig{
		Seed: 42, Centers: 16, Tasks: 480, Workers: 64, DeliveryPoints: 160,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Assign(p, assign.GTA{}, Options{Parallelism: par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
