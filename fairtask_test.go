package fairtask_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"fairtask"
	"fairtask/internal/game"
	"fairtask/internal/obs"
	"fairtask/internal/stream"
	"fairtask/internal/vdps"
)

func gmInstance(t *testing.T) *fairtask.Instance {
	t.Helper()
	in, err := fairtask.GenerateGM(fairtask.GMConfig{
		Seed: 1, Tasks: 80, Workers: 8, DeliveryPoints: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSolveAllAlgorithms(t *testing.T) {
	in := gmInstance(t)
	for _, alg := range fairtask.Algorithms() {
		res, err := fairtask.Solve(in, fairtask.Options{Algorithm: alg, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if err := res.Assignment.Validate(in); err != nil {
			t.Errorf("%s: invalid assignment: %v", alg, err)
		}
		if res.Summary.Difference < 0 {
			t.Errorf("%s: negative payoff difference", alg)
		}
	}
}

func TestSolveDefaultsToFGT(t *testing.T) {
	in := gmInstance(t)
	res, err := fairtask.Solve(in, fairtask.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("default FGT should converge on a small instance")
	}
}

func TestSolveUnknownAlgorithm(t *testing.T) {
	in := gmInstance(t)
	if _, err := fairtask.Solve(in, fairtask.Options{Algorithm: "nope"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestNewAssignerNames(t *testing.T) {
	for _, alg := range fairtask.Algorithms() {
		a, err := fairtask.NewAssigner(fairtask.Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != string(alg) {
			t.Errorf("Name = %q, want %q", a.Name(), alg)
		}
	}
}

// The headline claim of the paper: the game-theoretic methods achieve lower
// payoff difference than the fairness-oblivious baselines, and MPTA attains
// the highest average payoff. Verified here on a mid-size GM instance.
func TestFairnessOrdering(t *testing.T) {
	in, err := fairtask.GenerateGM(fairtask.GMConfig{
		Seed: 7, Tasks: 150, Workers: 12, DeliveryPoints: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(alg fairtask.Algorithm) fairtask.Summary {
		res, err := fairtask.Solve(in, fairtask.Options{Algorithm: alg, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		return res.Summary
	}
	mpta := run(fairtask.AlgMPTA)
	gta := run(fairtask.AlgGTA)
	iegt := run(fairtask.AlgIEGT)

	if iegt.Difference >= mpta.Difference {
		t.Errorf("IEGT P_dif %.3f should be below MPTA's %.3f", iegt.Difference, mpta.Difference)
	}
	if iegt.Difference >= gta.Difference {
		t.Errorf("IEGT P_dif %.3f should be below GTA's %.3f", iegt.Difference, gta.Difference)
	}
	if mpta.Average < gta.Average-1e-9 {
		t.Errorf("MPTA average %.3f should be >= GTA average %.3f", mpta.Average, gta.Average)
	}
}

func TestSolveProblem(t *testing.T) {
	p, err := fairtask.GenerateSYN(fairtask.SYNConfig{
		Seed: 2, Centers: 3, Tasks: 90, Workers: 12, DeliveryPoints: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fairtask.SolveProblem(p, fairtask.Options{Algorithm: fairtask.AlgGTA})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Payoffs) != p.WorkerCount() {
		t.Errorf("payoffs = %d, want %d", len(res.Payoffs), p.WorkerCount())
	}
	if math.Abs(res.Difference-fairtask.PayoffDifference(res.Payoffs)) > 1e-12 {
		t.Error("difference helper inconsistent")
	}
	if math.Abs(res.Average-fairtask.AveragePayoff(res.Payoffs)) > 1e-12 {
		t.Error("average helper inconsistent")
	}
}

func TestCSVRoundTripThroughPublicAPI(t *testing.T) {
	p, err := fairtask.GenerateSYN(fairtask.SYNConfig{
		Seed: 4, Centers: 2, Tasks: 20, Workers: 4, DeliveryPoints: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fairtask.WriteCSV(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := fairtask.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.TaskCount() != p.TaskCount() {
		t.Error("round trip lost tasks")
	}
}

func TestSimulateThroughPublicAPI(t *testing.T) {
	p, err := fairtask.GenerateSYN(fairtask.SYNConfig{
		Seed: 5, Centers: 2, Tasks: 60, Workers: 8, DeliveryPoints: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	solver, err := fairtask.NewAssigner(fairtask.Options{Algorithm: fairtask.AlgIEGT, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fairtask.Simulate(p, fairtask.SimConfig{Epochs: 3, Solver: solver})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != 3 {
		t.Errorf("epochs = %d", len(rep.Epochs))
	}
}

func TestTravelModelHelper(t *testing.T) {
	m, err := fairtask.NewTravelModel(nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Time(fairtask.Pt(0, 0), fairtask.Pt(3, 4)); math.Abs(got-1) > 1e-9 {
		t.Errorf("Time = %g, want 1", got)
	}
	if _, err := fairtask.NewTravelModel(nil, 0); err == nil {
		t.Error("zero speed accepted")
	}
}

func TestDefaultFairness(t *testing.T) {
	p := fairtask.DefaultFairness()
	if p.Alpha != 0.5 || p.Beta != 0.5 {
		t.Errorf("defaults = %+v, want 0.5/0.5", p)
	}
}

func TestSolveWithEpsilonPruning(t *testing.T) {
	in := gmInstance(t)
	pruned, err := fairtask.Solve(in, fairtask.Options{
		Algorithm: fairtask.AlgGTA,
		VDPS:      fairtask.VDPSOptions{Epsilon: 0.6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pruned.Assignment.Validate(in); err != nil {
		t.Errorf("pruned assignment invalid: %v", err)
	}
}

func TestExtendedAlgorithms(t *testing.T) {
	in := gmInstance(t)
	algs := fairtask.ExtendedAlgorithms()
	if len(algs) != 6 || algs[4] != fairtask.AlgMMTA || algs[5] != fairtask.AlgLexifair {
		t.Fatalf("ExtendedAlgorithms = %v", algs)
	}
	res, err := fairtask.Solve(in, fairtask.Options{Algorithm: fairtask.AlgMMTA})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(in); err != nil {
		t.Errorf("MMTA via public API invalid: %v", err)
	}
}

// LEXIFAIR must work through the public facade with the auditor's leximin
// certificate enabled — the end-to-end path the CLI and HTTP layers use.
func TestLexifairPublicSolveWithAudit(t *testing.T) {
	in := gmInstance(t)
	res, err := fairtask.Solve(in, fairtask.Options{
		Algorithm: fairtask.AlgLexifair,
		Audit:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(in); err != nil {
		t.Errorf("LEXIFAIR via public API invalid: %v", err)
	}
	if res.Summary.Assigned == 0 {
		t.Error("LEXIFAIR assigned nothing")
	}
}

func TestFairnessMetricHelpers(t *testing.T) {
	p := []float64{1, 1, 4}
	if fairtask.Gini(p) <= 0 {
		t.Error("Gini of unequal payoffs should be positive")
	}
	if j := fairtask.JainIndex(p); j <= 0 || j > 1 {
		t.Errorf("Jain = %g out of range", j)
	}
	if fairtask.MinPayoff(p) != 1 {
		t.Error("MinPayoff wrong")
	}
}

// MMTA should achieve a minimum payoff at least as high as GTA's — its
// whole purpose.
func TestMMTARaisesMinimum(t *testing.T) {
	in, err := fairtask.GenerateGM(fairtask.GMConfig{
		Seed: 3, Tasks: 120, Workers: 10, DeliveryPoints: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	gta, err := fairtask.Solve(in, fairtask.Options{Algorithm: fairtask.AlgGTA})
	if err != nil {
		t.Fatal(err)
	}
	mmta, err := fairtask.Solve(in, fairtask.Options{Algorithm: fairtask.AlgMMTA})
	if err != nil {
		t.Fatal(err)
	}
	if fairtask.MinPayoff(mmta.Summary.Payoffs) < fairtask.MinPayoff(gta.Summary.Payoffs)-1e-9 {
		t.Errorf("MMTA min %g below GTA min %g",
			fairtask.MinPayoff(mmta.Summary.Payoffs), fairtask.MinPayoff(gta.Summary.Payoffs))
	}
}

func TestSimulateWithPoissonArrivals(t *testing.T) {
	p, err := fairtask.GenerateSYN(fairtask.SYNConfig{
		Seed: 8, Centers: 2, Tasks: 40, Workers: 10, DeliveryPoints: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	solver, err := fairtask.NewAssigner(fairtask.Options{Algorithm: fairtask.AlgGTA})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fairtask.Simulate(p, fairtask.SimConfig{
		Epochs:      4,
		EpochLength: 0.5,
		Solver:      solver,
		TaskSource:  fairtask.NewPoissonArrivals(fairtask.ArrivalConfig{Seed: 2, RatePerPoint: 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CompletedTasks == 0 {
		t.Error("no tasks completed despite arrivals")
	}
}

func TestDistributionHelpers(t *testing.T) {
	p := []float64{1, 2, 3, 4}
	if got := fairtask.PayoffQuantile(p, 0.5); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("median = %g", got)
	}
	lz := fairtask.LorenzCurve(p)
	if len(lz) != 5 || lz[4].Share != 1 {
		t.Errorf("Lorenz = %v", lz)
	}
}

func TestSolveSampledUnlimitedMaxDP(t *testing.T) {
	in, err := fairtask.GenerateGM(fairtask.GMConfig{
		Seed: 6, Tasks: 120, Workers: 8, DeliveryPoints: 40, MaxDP: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Unlimited maxDP: make every worker cap-free. (GMConfig.MaxDP -1 maps
	// to 0 = unlimited in the generator.)
	for i := range in.Workers {
		in.Workers[i].MaxDP = 0
	}
	res, err := fairtask.SolveSampled(in,
		fairtask.SampleVDPSOptions{Seed: 2, Samples: 4},
		fairtask.Options{Algorithm: fairtask.AlgIEGT, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(in); err != nil {
		t.Errorf("sampled assignment invalid: %v", err)
	}
	if res.Summary.Assigned == 0 {
		t.Error("sampled solve assigned nothing")
	}
	long := false
	for _, r := range res.Assignment.Routes {
		if len(r) > 3 {
			long = true
		}
	}
	if !long {
		t.Log("note: no route longer than 3 points (acceptable but unusual)")
	}
}

// TestSolveSampledTelemetry pins a sampled solve's per-solve payoff
// histograms to its result: the observed P_dif and mean payoff are the
// solved center's, not zero.
func TestSolveSampledTelemetry(t *testing.T) {
	in := gmInstance(t)
	reg := fairtask.NewMetricsRegistry()
	res, err := fairtask.SolveSampled(in, fairtask.SampleVDPSOptions{Seed: 2},
		fairtask.Options{Algorithm: fairtask.AlgFGT, Seed: 3, Recorder: fairtask.NewMetricsRecorder(reg)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Difference == 0 {
		t.Fatal("P_dif is 0: a missing observation would go unnoticed")
	}
	alg := obs.L("algorithm", "FGT")
	for _, c := range []struct {
		family string
		want   float64
	}{
		{"fta_solve_payoff_difference", res.Summary.Difference},
		{"fta_solve_average_payoff", res.Summary.Average},
	} {
		h := reg.Histogram(c.family, "", nil, alg)
		if h.Count() != 1 || h.Sum() != c.want {
			t.Errorf("%s: count %d sum %v, want 1 observation of %v", c.family, h.Count(), h.Sum(), c.want)
		}
	}
}

func TestEquilibriumVerifiers(t *testing.T) {
	in := gmInstance(t)
	opt := fairtask.Options{Algorithm: fairtask.AlgFGT, Seed: 4}
	fgt, err := fairtask.Solve(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := fairtask.VerifyNashEquilibrium(in, fgt.Assignment, opt); err != nil {
		t.Errorf("FGT result not certified as NE: %v", err)
	}
	iegt, err := fairtask.Solve(in, fairtask.Options{Algorithm: fairtask.AlgIEGT, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := fairtask.VerifyEvolutionaryEquilibrium(in, iegt.Assignment, fairtask.Options{}); err != nil {
		t.Errorf("IEGT result not certified stable: %v", err)
	}
}

func TestPublicWrapperCoverage(t *testing.T) {
	in := gmInstance(t)
	res, err := fairtask.Solve(in, fairtask.Options{Algorithm: fairtask.AlgGTA})
	if err != nil {
		t.Fatal(err)
	}
	// Summarize must agree with the result's own summary.
	sum := fairtask.Summarize(in, res.Assignment)
	if math.Abs(sum.Difference-res.Summary.Difference) > 1e-12 {
		t.Error("Summarize disagrees with solver summary")
	}
	// RushHourProfile peaks above its trough through the public wrapper.
	if fairtask.RushHourProfile(8) <= fairtask.RushHourProfile(2) {
		t.Error("RushHourProfile shape wrong through wrapper")
	}
	// RenderSVG produces a document.
	var buf bytes.Buffer
	if err := fairtask.RenderSVG(&buf, in, res.Assignment, fairtask.RenderOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "<svg") {
		t.Error("RenderSVG output malformed")
	}
	// Online matcher construction through the wrapper.
	m, err := fairtask.NewOnlineMatcher(in, fairtask.OnlineGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Offer(0, fairtask.OnlineTask{ID: 1, Loc: fairtask.Pt(0, 0), Expiry: 100, Reward: 1}); !ok {
		t.Error("online offer rejected on a trivial task")
	}
	// Instance stats through the alias.
	var st fairtask.InstanceStats = in.Stats()
	if st.Points != len(in.Points) {
		t.Error("InstanceStats alias broken")
	}
}

func TestSolveProblemContext(t *testing.T) {
	p, err := fairtask.GenerateSYN(fairtask.SYNConfig{
		Seed: 2, Centers: 2, Tasks: 40, Workers: 8, DeliveryPoints: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fairtask.SolveProblemContext(ctx, p, fairtask.Options{Algorithm: fairtask.AlgGTA}); err == nil {
		t.Error("cancelled context accepted")
	}
	if _, err := fairtask.SolveProblemContext(context.Background(), p,
		fairtask.Options{Algorithm: fairtask.AlgGTA}); err != nil {
		t.Errorf("live context failed: %v", err)
	}
}

// TestStreamFacade exercises the public streaming surface end to end:
// engine construction, a generated delta stream applied through the warm
// paths, and the replay helper reconstructing the instance the engine
// stands on.
func TestStreamFacade(t *testing.T) {
	in, err := fairtask.GenerateGM(fairtask.GMConfig{
		Seed: 9, Tasks: 40, Workers: 6, DeliveryPoints: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := fairtask.GenerateStreamDeltas(in, fairtask.StreamGenConfig{
		Seed: 9, Duration: 1, RepriceRate: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 {
		t.Fatal("empty generated stream")
	}

	reg := fairtask.NewMetricsRegistry()
	opt := fairtask.StreamOptions{Metrics: fairtask.NewStreamMetrics(reg)}
	opt.VDPS.Epsilon = 1.5
	opt.Game.Seed = 9
	eng, err := fairtask.NewStreamEngine(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	replayed := in.Clone()
	for _, d := range ds {
		res, err := eng.Apply(context.Background(), d)
		if err != nil {
			t.Fatalf("seq %d: %v", d.Seq, err)
		}
		if res.Resolve == fairtask.StreamResolveCold {
			t.Fatalf("seq %d fell back to a cold solve", d.Seq)
		}
		if err := fairtask.ReplayStreamDeltas(replayed, d); err != nil {
			t.Fatalf("replay seq %d: %v", d.Seq, err)
		}
	}
	if _, err := eng.Apply(context.Background(), ds[0]); err == nil {
		t.Fatal("stale sequence accepted")
	} else if !errors.Is(err, fairtask.ErrStreamStaleSeq) {
		t.Fatalf("stale sequence error = %v", err)
	}
	snap := eng.Snapshot()
	if snap.Instance.TaskCount() != replayed.TaskCount() {
		t.Fatalf("replay diverged: engine holds %d tasks, replay %d",
			snap.Instance.TaskCount(), replayed.TaskCount())
	}
}

// TestFGTRejectsNonMonotoneIAU pins the boundary of the payoff rule FGT's
// best response rests on. Outside alpha >= -m, beta <= m (m the least
// effective priority, 1 without priorities) some worker's IAU falls as its
// payoff rises, so every entry point that plays or certifies the game —
// game.FGT, the stream engine, game.VerifyNE and
// fairtask.Solve — rejects the weights with ErrNonMonotoneIAU. The
// prioritized instance whose least priority equals beta is still accepted.
func TestFGTRejectsNonMonotoneIAU(t *testing.T) {
	withPriorities := func(prs ...float64) *fairtask.Instance {
		in := gmInstance(t)
		for w := range in.Workers {
			in.Workers[w].Priority = prs[w%len(prs)]
		}
		return in
	}
	cases := []struct {
		name          string
		in            *fairtask.Instance
		fair          fairtask.FairnessParams
		usePriorities bool
	}{
		{"priority 0.35", withPriorities(1, 0.35, 2), fairtask.FairnessParams{}, true},
		{"beta 1.5", gmInstance(t), fairtask.FairnessParams{Alpha: 0.5, Beta: 1.5}, false},
		{"NaN alpha", gmInstance(t), fairtask.FairnessParams{Alpha: math.NaN(), Beta: 0.5}, false},
	}
	for _, c := range cases {
		g, err := vdps.Generate(c.in, vdps.Options{})
		if err != nil {
			t.Fatal(err)
		}
		gopt := game.Options{Fairness: c.fair, UsePriorities: c.usePriorities, Seed: 1}
		_, err = game.FGT(context.Background(), game.NewState(g), gopt)
		if !errors.Is(err, fairtask.ErrNonMonotoneIAU) {
			t.Errorf("%s: game.FGT err = %v, want ErrNonMonotoneIAU", c.name, err)
		}
		_, err = stream.New(context.Background(), c.in, stream.Options{Game: gopt})
		if !errors.Is(err, fairtask.ErrNonMonotoneIAU) {
			t.Errorf("%s: stream.New err = %v, want ErrNonMonotoneIAU", c.name, err)
		}
		err = game.VerifyNE(game.NewState(g), game.NEOptions{Fairness: c.fair, UsePriorities: c.usePriorities})
		if !errors.Is(err, fairtask.ErrNonMonotoneIAU) {
			t.Errorf("%s: game.VerifyNE err = %v, want ErrNonMonotoneIAU", c.name, err)
		}
		_, err = fairtask.Solve(c.in, fairtask.Options{
			Algorithm: fairtask.AlgFGT, Fairness: c.fair, UsePriorities: c.usePriorities, Seed: 1,
		})
		if !errors.Is(err, fairtask.ErrNonMonotoneIAU) {
			t.Errorf("%s: fairtask.Solve err = %v, want ErrNonMonotoneIAU", c.name, err)
		}
	}

	// Least priority 0.5 = beta: the IAU of the richest such worker is flat
	// in its payoff, which the rule still accepts.
	in := withPriorities(0.5, 1.5, 2.5, 3.5)
	opt := fairtask.Options{Algorithm: fairtask.AlgFGT, UsePriorities: true, Seed: 1, Audit: true}
	res, err := fairtask.Solve(in, opt)
	if err != nil {
		t.Fatalf("prioritized instance: %v", err)
	}
	if err := fairtask.VerifyNashEquilibrium(in, res.Assignment, opt); err != nil {
		t.Fatalf("prioritized instance: certificate: %v", err)
	}
	if _, err := stream.New(context.Background(), in,
		stream.Options{Game: game.Options{UsePriorities: true, Seed: 1}}); err != nil {
		t.Fatalf("prioritized instance: stream.New: %v", err)
	}
}

// TestVerifyNashEquilibriumUsesPriorities pins that the facade certificate
// honours opt.UsePriorities the way audit.Run does: certifying the
// priority-aware IAU on an instance with a worker priority of 0.35 hits the
// monotone-domain check instead of silently certifying the plain IAU.
func TestVerifyNashEquilibriumUsesPriorities(t *testing.T) {
	in := gmInstance(t)
	in.Workers[1].Priority = 0.35
	res, err := fairtask.Solve(in, fairtask.Options{Algorithm: fairtask.AlgFGT, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fairtask.VerifyNashEquilibrium(in, res.Assignment, fairtask.Options{}); err != nil {
		t.Fatalf("plain certificate: %v", err)
	}
	err = fairtask.VerifyNashEquilibrium(in, res.Assignment, fairtask.Options{UsePriorities: true})
	if !errors.Is(err, fairtask.ErrNonMonotoneIAU) {
		t.Fatalf("priority-aware certificate err = %v, want ErrNonMonotoneIAU", err)
	}
}

// TestVerifyNashEquilibriumLoadsFirst pins the certificate's order: the
// assignment is loaded before the weights are checked, so a route outside
// its worker's strategy space is reported as such even when the weights are
// also outside the monotone IAU domain.
func TestVerifyNashEquilibriumLoadsFirst(t *testing.T) {
	in := gmInstance(t)
	a := &fairtask.Assignment{Routes: make([]fairtask.Route, len(in.Workers))}
	a.Routes[0] = fairtask.Route{0, 0}
	opt := fairtask.Options{Fairness: fairtask.FairnessParams{Alpha: 0.5, Beta: 1.5}}
	err := fairtask.VerifyNashEquilibrium(in, a, opt)
	if err == nil || errors.Is(err, fairtask.ErrNonMonotoneIAU) ||
		!strings.Contains(err.Error(), "not in worker 0's strategy space") {
		t.Fatalf("err = %v, want the load error for worker 0's route", err)
	}
}
