package platform

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"fairtask/internal/assign"
	"fairtask/internal/audit"
	"fairtask/internal/dataset"
	"fairtask/internal/fault"
	"fairtask/internal/game"
	"fairtask/internal/obs"
	"fairtask/internal/vdps"
)

// armPoint arms a failpoint for the test and guarantees a clean registry
// afterwards even when the test fails early.
func armPoint(t *testing.T, name string, b fault.Behavior) *fault.Failpoint {
	t.Helper()
	fp := fault.Lookup(name)
	if fp == nil {
		t.Fatalf("failpoint %q not registered", name)
	}
	fp.Arm(b)
	t.Cleanup(fault.DisarmAll)
	return fp
}

// TestSolveSecondsExcludeGeneration delays candidate generation by 200ms:
// fta_vdps_generation_seconds must carry the delay and fta_solve_seconds,
// which times the solver alone, must not.
func TestSolveSecondsExcludeGeneration(t *testing.T) {
	if err := fault.ArmSpecs("vdps.generate:sleep:1:200ms"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.DisarmAll)
	in := &smallProblem(t, 1).Instances[0]
	reg := obs.NewRegistry()
	if _, _, err := SolveInstance(context.Background(), in, assign.GTA{}, Options{Recorder: obs.NewMetricsRecorder(reg)}); err != nil {
		t.Fatal(err)
	}
	gen := reg.Histogram("fta_vdps_generation_seconds", "", nil).Sum()
	solve := reg.Histogram("fta_solve_seconds", "", nil).Sum()
	if gen < 0.2 || solve >= 0.2 {
		t.Errorf("generation %.3fs, solve %.3fs: want generation >= 0.2s and solve < 0.2s", gen, solve)
	}
}

func TestDegradeFallsToSampled(t *testing.T) {
	p := smallProblem(t, 1)
	in := &p.Instances[0]
	armPoint(t, "vdps.generate", fault.Behavior{Kind: fault.KindError, Count: 10})

	res, rep, err := SolveInstance(context.Background(), in, assign.GTA{}, Options{
		Degrade: &Degrade{},
	})
	if err != nil {
		t.Fatalf("SolveInstance: %v", err)
	}
	if res.Degraded != RungSampled {
		t.Fatalf("Degraded = %q, want %q", res.Degraded, RungSampled)
	}
	if rep == nil {
		t.Fatal("degraded rung served without an audit report")
	}
	if !rep.OK() {
		t.Fatalf("sampled rung audit violations: %v", rep.Err())
	}
	if err := res.Assignment.Validate(in); err != nil {
		t.Fatalf("sampled assignment invalid: %v", err)
	}
}

// TestDegradeSampledRungCertifies pins that a degraded rung runs its
// solver's certificate although the caller configured no audit: the
// certificate reads the solver's own options, so nothing about the caller's
// weights is unknown.
func TestDegradeSampledRungCertifies(t *testing.T) {
	p := smallProblem(t, 1)
	in := &p.Instances[0]
	armPoint(t, "vdps.generate", fault.Behavior{Kind: fault.KindError, Count: 10})

	res, rep, err := SolveInstance(context.Background(), in, game.Options{Seed: 1, EpsilonUtility: 0.5}, Options{
		Degrade: &Degrade{},
	})
	if err != nil {
		t.Fatalf("SolveInstance: %v", err)
	}
	if res.Degraded != RungSampled || !res.Converged {
		t.Fatalf("Degraded = %q, converged %v; want a converged %q solve", res.Degraded, res.Converged, RungSampled)
	}
	if !rep.OK() || !slices.Contains(rep.Checks, audit.CheckEquilibrium) {
		t.Fatalf("sampled rung audit: checks %v, violations %v", rep.Checks, rep.Violations)
	}
}

func TestDegradeFallsToGreedy(t *testing.T) {
	p := smallProblem(t, 1)
	in := &p.Instances[0]
	// Exact generation always fails; sampled generation fails exactly once,
	// taking down the sampled rung but leaving the greedy rung healthy.
	armPoint(t, "vdps.generate", fault.Behavior{Kind: fault.KindError, Count: 10})
	armPoint(t, "vdps.sample", fault.Behavior{Kind: fault.KindError, Count: 1})

	res, rep, err := SolveInstance(context.Background(), in, assign.MMTA{}, Options{
		Degrade: &Degrade{},
	})
	if err != nil {
		t.Fatalf("SolveInstance: %v", err)
	}
	if res.Degraded != RungGreedy {
		t.Fatalf("Degraded = %q, want %q", res.Degraded, RungGreedy)
	}
	if rep == nil || !rep.OK() {
		t.Fatalf("greedy rung must be audit-clean, report = %v", rep)
	}
	if err := res.Assignment.Validate(in); err != nil {
		t.Fatalf("greedy assignment invalid: %v", err)
	}
}

// TestDegradeSeedSweepAuditClean is the differential sweep: across several
// generated instances, both fallback rungs must produce assignments that
// pass the independent auditor's structural checks.
func TestDegradeSeedSweepAuditClean(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p, err := dataset.GenerateSYN(dataset.SYNConfig{
			Seed: seed, Centers: 1, Tasks: 30, Workers: 4, DeliveryPoints: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		in := &p.Instances[0]
		for _, rung := range []string{RungSampled, RungGreedy} {
			fault.DisarmAll()
			fault.Lookup("vdps.generate").Arm(fault.Behavior{Kind: fault.KindError, Count: 100})
			if rung == RungGreedy {
				fault.Lookup("vdps.sample").Arm(fault.Behavior{Kind: fault.KindError, Count: 1})
			}
			res, rep, err := SolveInstance(context.Background(), in, assign.GTA{}, Options{
				Degrade: &Degrade{Sample: vdps.SampleOptions{Seed: seed}},
			})
			if err != nil {
				t.Fatalf("seed %d rung %s: %v", seed, rung, err)
			}
			if res.Degraded != rung {
				t.Errorf("seed %d: Degraded = %q, want %q", seed, res.Degraded, rung)
			}
			if rep == nil {
				t.Errorf("seed %d rung %s: no audit report", seed, rung)
			} else if !rep.OK() {
				t.Errorf("seed %d rung %s: audit failed: %v", seed, rung, rep.Err())
			}
		}
	}
	fault.DisarmAll()
}

// TestDegradeMonotoneLadder is the ladder's core property: a rung never
// engages unless every better rung failed. Failpoint hit counters expose the
// order in which the rungs ran.
func TestDegradeMonotoneLadder(t *testing.T) {
	p := smallProblem(t, 1)
	in := &p.Instances[0]

	// Healthy system: the exact rung serves, the sampled generator is never
	// even consulted.
	fault.DisarmAll()
	t.Cleanup(fault.DisarmAll)
	res, _, err := SolveInstance(context.Background(), in, assign.GTA{}, Options{
		Degrade: &Degrade{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != "" {
		t.Fatalf("healthy solve degraded to %q", res.Degraded)
	}

	// Exact generation broken, with retries: the sampled rung may engage
	// only after the exact rung exhausted its full retry budget.
	gen := armPoint(t, "vdps.generate", fault.Behavior{Kind: fault.KindError, Count: 100})
	// Disarmed points count nothing, so observe the sampled generator with a
	// harmless 1ns sleep behavior that never fails anything.
	sample := armPoint(t, "vdps.sample", fault.Behavior{Kind: fault.KindSleep, Delay: time.Nanosecond})
	res, _, err = SolveInstance(context.Background(), in, assign.GTA{}, Options{
		Degrade: &Degrade{},
		Retry:   &fault.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != RungSampled {
		t.Fatalf("Degraded = %q, want %q", res.Degraded, RungSampled)
	}
	if _, fired := gen.Stats(); fired != 3 {
		t.Errorf("exact rung fired the generate failpoint %d times, want 3 (full retry budget)", fired)
	}
	if hits, _ := sample.Stats(); hits == 0 {
		t.Error("sampled rung served but never touched the sampled generator")
	}
}

// TestDegradeBudgetTrips pins the rung label to the budget that tripped: an
// already-expired exact budget pushes the solve onto the sampled rung.
func TestDegradeBudgetTrips(t *testing.T) {
	p := smallProblem(t, 1)
	in := &p.Instances[0]
	res, _, err := SolveInstance(context.Background(), in, assign.GTA{}, Options{
		Degrade: &Degrade{ExactBudget: time.Nanosecond, SampledBudget: time.Minute},
	})
	if err != nil {
		t.Fatalf("SolveInstance: %v", err)
	}
	if res.Degraded != RungSampled {
		t.Fatalf("Degraded = %q, want %q after exact budget expiry", res.Degraded, RungSampled)
	}
}

func TestDegradeNegativeBudgetSkipsRung(t *testing.T) {
	p := smallProblem(t, 1)
	in := &p.Instances[0]
	gen := fault.Lookup("vdps.generate")
	gen.Disarm()
	res, _, err := SolveInstance(context.Background(), in, assign.GTA{}, Options{
		Degrade: &Degrade{ExactBudget: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != RungSampled {
		t.Fatalf("Degraded = %q, want %q with the exact rung disabled", res.Degraded, RungSampled)
	}
}

func TestDegradeDeadParentContextAborts(t *testing.T) {
	p := smallProblem(t, 1)
	in := &p.Instances[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Armed observer: a disarmed point counts nothing, so give the sampled
	// generator a harmless behavior whose hit counter proves (non-)use.
	sample := armPoint(t, "vdps.sample", fault.Behavior{Kind: fault.KindSleep, Delay: time.Nanosecond})

	_, _, err := SolveInstance(ctx, in, assign.GTA{}, Options{Degrade: &Degrade{}})
	if err == nil {
		t.Fatal("expected error with a dead parent context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	// The caller is out of time: no fallback rung may burn CPU.
	if hits, _ := sample.Stats(); hits != 0 {
		t.Errorf("sampled generator consulted %d times after parent cancellation", hits)
	}
}

func TestDegradeLadderExhausted(t *testing.T) {
	p := smallProblem(t, 1)
	in := &p.Instances[0]
	armPoint(t, "vdps.generate", fault.Behavior{Kind: fault.KindError, Count: 100})
	armPoint(t, "vdps.sample", fault.Behavior{Kind: fault.KindError, Count: 100})

	_, _, err := SolveInstance(context.Background(), in, assign.GTA{}, Options{
		Degrade: &Degrade{},
	})
	if err == nil {
		t.Fatal("expected ladder exhaustion")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want fault.ErrInjected in the chain", err)
	}
	var fe *fault.Error
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want a *fault.Error in the chain", err)
	}
}

// TestChaosSolveDeterministic re-runs the same seeded chaos scenario and
// demands bit-identical results: same rung, same routes, same payoffs.
func TestChaosSolveDeterministic(t *testing.T) {
	p := smallProblem(t, 1)

	run := func() (*Result, error) {
		fault.DisarmAll()
		// Arm resets the counters, so each run sees an identical trigger
		// schedule.
		fault.Lookup("vdps.generate").Arm(fault.Behavior{Kind: fault.KindError, Count: 3})
		return Assign(p, assign.GTA{}, Options{
			Parallelism: 1,
			Retry:       &fault.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond, Seed: 7},
			Degrade:     &Degrade{Sample: vdps.SampleOptions{Seed: 11}},
		})
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	fault.DisarmAll()
	if err != nil {
		t.Fatal(err)
	}
	if a.Degraded != b.Degraded {
		t.Fatalf("rungs differ across identical runs: %q vs %q", a.Degraded, b.Degraded)
	}
	if !reflect.DeepEqual(a.Payoffs, b.Payoffs) {
		t.Error("payoffs differ across identical seeded chaos runs")
	}
	for i := range a.PerCenter {
		if !reflect.DeepEqual(a.PerCenter[i].Assignment, b.PerCenter[i].Assignment) {
			t.Errorf("center %d assignments differ across identical seeded chaos runs", i)
		}
	}
}

func TestDegradeWorseRungOrdering(t *testing.T) {
	cases := []struct{ a, b, want string }{
		{"", "", ""},
		{"", RungSampled, RungSampled},
		{RungSampled, "", RungSampled},
		{RungSampled, RungGreedy, RungGreedy},
		{RungGreedy, RungSampled, RungGreedy},
	}
	for _, c := range cases {
		if got := worseRung(c.a, c.b); got != c.want {
			t.Errorf("worseRung(%q, %q) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
}

// playedFGT is FGT at its options, keeping the state it was last handed.
// It embeds game.Options, so the rung's audit certifies with VerifyNE.
type playedFGT struct {
	game.Options
	played *game.State
}

// Assign records s and plays FGT on it.
func (p *playedFGT) Assign(ctx context.Context, s *game.State) (*game.Result, error) {
	p.played = s
	return p.Options.Assign(ctx, s)
}

// TestW200SolveBuildsNoLists pins the served W200 FGT solve to a state
// whose lists are built on demand: on GM 1000/200/150 at ε 0.6 every best
// response walks, so the state the solver played holds no strategy list,
// audited or not, and the audit that certified it is clean.
func TestW200SolveBuildsNoLists(t *testing.T) {
	in, err := dataset.GenerateGM(dataset.GMConfig{Seed: 1, Tasks: 1000, Workers: 200, DeliveryPoints: 150})
	if err != nil {
		t.Fatal(err)
	}
	for _, audited := range []bool{false, true} {
		sp := &playedFGT{Options: game.Options{Seed: 1}}
		opt := Options{VDPS: vdps.Options{Epsilon: 0.6}}
		if audited {
			opt.Audit = &audit.Options{}
		}
		res, rep, err := SolveInstance(context.Background(), in, sp, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("audited %v: FGT did not converge", audited)
		}
		if sp.played.Strategies != nil {
			t.Fatalf("audited %v: the W200 solve built its strategy lists", audited)
		}
		if audited && (!rep.OK() || !slices.Contains(rep.Checks, audit.CheckEquilibrium)) {
			t.Fatalf("audit checks %v, violations %v; want a clean certificate", rep.Checks, rep.Violations)
		}
	}
}
