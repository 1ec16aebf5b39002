package audit

import (
	"context"
	"slices"
	"testing"

	"fairtask/internal/assign"
	"fairtask/internal/evo"
	"fairtask/internal/fairness"
	"fairtask/internal/game"
	"fairtask/internal/geo"
	"fairtask/internal/model"
	"fairtask/internal/payoff"
	"fairtask/internal/travel"
	"fairtask/internal/vdps"
)

// lineInstance places nPoints delivery points at x = 1..n on the x axis,
// center at the origin, workers at (-1, 0), unit speed, one unit-reward
// task per point with the given expiry.
func lineInstance(nPoints, nWorkers int, expiry float64, maxDP int) *model.Instance {
	in := &model.Instance{
		Center: geo.Pt(0, 0),
		Travel: travel.MustModel(geo.Euclidean{}, 1),
	}
	for i := 0; i < nPoints; i++ {
		in.Points = append(in.Points, model.DeliveryPoint{
			ID:  i,
			Loc: geo.Pt(float64(i+1), 0),
			Tasks: []model.Task{
				{ID: i, Point: i, Expiry: expiry, Reward: 1},
			},
		})
	}
	for w := 0; w < nWorkers; w++ {
		in.Workers = append(in.Workers, model.Worker{ID: w, Loc: geo.Pt(-1, 0), MaxDP: maxDP})
	}
	return in
}

func mustGenerate(t *testing.T, in *model.Instance) *vdps.Generator {
	t.Helper()
	g, err := vdps.Generate(in, vdps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// hasViolation reports whether the report contains a violation of the given
// check (for any worker when worker is -2).
func hasViolation(r *Report, c Check, worker int) bool {
	for _, v := range r.Violations {
		if v.Check == c && (worker == -2 || v.Worker == worker) {
			return true
		}
	}
	return false
}

func hasSkipped(r *Report, c Check) bool {
	for _, s := range r.Skipped {
		if s == c {
			return true
		}
	}
	return false
}

func TestRunCleanFGT(t *testing.T) {
	in := lineInstance(4, 2, 100, 2)
	g := mustGenerate(t, in)
	res, err := game.FGT(context.Background(), game.NewState(g), game.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("FGT did not converge on a trivial instance")
	}
	rep := Run(in, res.Assignment, &res.Summary, Options{
		Generator: g, Algorithm: "FGT", Converged: true,
	})
	if !rep.OK() {
		t.Fatalf("clean FGT result failed audit: %v", rep.Violations)
	}
	want := []Check{CheckStructure, CheckDeadlines, CheckSummary, CheckVDPS, CheckEquilibrium}
	if len(rep.Checks) != len(want) {
		t.Fatalf("Checks = %v, want %v", rep.Checks, want)
	}
	for i, c := range want {
		if rep.Checks[i] != c {
			t.Errorf("Checks[%d] = %s, want %s", i, rep.Checks[i], c)
		}
	}
	if len(rep.Skipped) != 0 {
		t.Errorf("Skipped = %v, want none", rep.Skipped)
	}
	if rep.Err() != nil {
		t.Errorf("Err() = %v on a clean report", rep.Err())
	}
}

func TestRunCleanIEGT(t *testing.T) {
	in := lineInstance(4, 2, 100, 2)
	g := mustGenerate(t, in)
	res, err := evo.IEGT(context.Background(), game.NewState(g), evo.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(in, res.Assignment, &res.Summary, Options{
		Generator: g, Algorithm: "IEGT", Converged: res.Converged,
	})
	if !rep.OK() {
		t.Fatalf("clean IEGT result failed audit: %v", rep.Violations)
	}
}

// TestRunRegenerates exercises the Generator == nil path: the auditor must
// regenerate candidates itself and reach the same verdict.
func TestRunRegenerates(t *testing.T) {
	in := lineInstance(3, 2, 100, 2)
	g := mustGenerate(t, in)
	res, err := game.FGT(context.Background(), game.NewState(g), game.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(in, res.Assignment, &res.Summary, Options{
		Algorithm: "FGT", Converged: res.Converged,
	})
	if !rep.OK() {
		t.Fatalf("audit with regeneration failed: %v", rep.Violations)
	}
}

func TestWorkerCountMismatch(t *testing.T) {
	in := lineInstance(3, 2, 100, 2)
	a := model.NewAssignment(1) // instance has 2 workers
	rep := Run(in, a, nil, Options{})
	if !hasViolation(rep, CheckStructure, -1) {
		t.Fatalf("missing structure violation: %v", rep.Violations)
	}
	for _, c := range []Check{CheckDeadlines, CheckSummary, CheckVDPS, CheckEquilibrium} {
		if !hasSkipped(rep, c) {
			t.Errorf("check %s not skipped after worker-count mismatch", c)
		}
	}
}

func TestOverlappingRoutes(t *testing.T) {
	in := lineInstance(3, 2, 100, 2)
	a := model.NewAssignment(2)
	a.Routes[0] = model.Route{0}
	a.Routes[1] = model.Route{0} // same point
	rep := Run(in, a, nil, Options{})
	if !hasViolation(rep, CheckStructure, 1) {
		t.Fatalf("missing overlap violation: %v", rep.Violations)
	}
}

// TestCertificateReportsLoadConflict pins what a certificate reports when
// the assignment does not load: every route is a member, but two overlap.
// The LEXIFAIR certificate, and the FGT certificate even at weights outside
// the monotone IAU domain, report the load's conflict error as their
// violation rather than running on overlapping routes.
func TestCertificateReportsLoadConflict(t *testing.T) {
	in := lineInstance(3, 2, 100, 2)
	g := mustGenerate(t, in)
	a := model.NewAssignment(2)
	a.Routes[0] = model.Route{0}
	a.Routes[1] = model.Route{0}
	want := game.NewState(g).LoadAssignment(a)
	if want == nil {
		t.Fatal("overlapping routes loaded")
	}
	cases := []struct {
		opt   Options
		check Check
	}{
		{Options{Algorithm: "LEXIFAIR"}, CheckLexifair},
		{Options{Algorithm: "FGT", Fairness: fairness.Params{Alpha: 0.5, Beta: 1.5}}, CheckEquilibrium},
	}
	for _, c := range cases {
		c.opt.Generator, c.opt.Converged = g, true
		rep := Run(in, a, nil, c.opt)
		if !hasViolation(rep, CheckStructure, 1) {
			t.Errorf("%s: missing overlap violation: %v", c.opt.Algorithm, rep.Violations)
		}
		var got []Violation
		for _, v := range rep.Violations {
			if v.Check == c.check {
				got = append(got, v)
			}
		}
		if len(got) != 1 || got[0].Worker != -1 || got[0].Detail != want.Error() {
			t.Errorf("%s: %s violations %v, want the load error %q", c.opt.Algorithm, c.check, got, want)
		}
	}
}

func TestMaxDPExceeded(t *testing.T) {
	in := lineInstance(3, 1, 100, 2)
	a := model.NewAssignment(1)
	a.Routes[0] = model.Route{0, 1, 2} // maxDP is 2
	rep := Run(in, a, nil, Options{})
	if !hasViolation(rep, CheckStructure, 0) {
		t.Fatalf("missing maxDP violation: %v", rep.Violations)
	}
}

func TestOutOfRangePoint(t *testing.T) {
	in := lineInstance(3, 1, 100, 0)
	a := model.NewAssignment(1)
	a.Routes[0] = model.Route{0, 7}   // point 7 does not exist
	rep := Run(in, a, nil, Options{}) // must not panic in RouteArrivals
	if !hasViolation(rep, CheckStructure, 0) {
		t.Fatalf("missing out-of-range violation: %v", rep.Violations)
	}
	// The invalid route contributes zero payoff, like the null strategy.
	if rep.Recomputed.Payoffs[0] != 0 {
		t.Errorf("invalid route got payoff %g, want 0", rep.Recomputed.Payoffs[0])
	}
}

func TestDuplicatePoint(t *testing.T) {
	in := lineInstance(3, 1, 100, 0)
	a := model.NewAssignment(1)
	a.Routes[0] = model.Route{1, 1}
	rep := Run(in, a, nil, Options{})
	if !hasViolation(rep, CheckStructure, 0) {
		t.Fatalf("missing duplicate-point violation: %v", rep.Violations)
	}
}

func TestDeadlineMiss(t *testing.T) {
	// Expiry 2.5: visiting points 0 then 2 arrives at x=3 at time 1+2=3 from
	// the center, past the deadline.
	in := lineInstance(3, 1, 2.5, 0)
	a := model.NewAssignment(1)
	a.Routes[0] = model.Route{0, 2}
	rep := Run(in, a, nil, Options{})
	if !hasViolation(rep, CheckDeadlines, 0) {
		t.Fatalf("missing deadline violation: %v", rep.Violations)
	}
}

func TestSummaryMismatch(t *testing.T) {
	in := lineInstance(3, 2, 100, 2)
	a := model.NewAssignment(2)
	a.Routes[0] = model.Route{0}
	a.Routes[1] = model.Route{1}
	good := payoff.Summarize(in, a)

	t.Run("clean", func(t *testing.T) {
		rep := Run(in, a, &good, Options{})
		if !rep.OK() {
			t.Fatalf("correct summary rejected: %v", rep.Violations)
		}
	})
	t.Run("difference", func(t *testing.T) {
		bad := good
		bad.Difference += 0.5
		rep := Run(in, a, &bad, Options{})
		if !hasViolation(rep, CheckSummary, -1) {
			t.Fatalf("missing difference violation: %v", rep.Violations)
		}
	})
	t.Run("payoff", func(t *testing.T) {
		bad := good
		bad.Payoffs = append([]float64(nil), good.Payoffs...)
		bad.Payoffs[1] *= 2
		rep := Run(in, a, &bad, Options{})
		if !hasViolation(rep, CheckSummary, 1) {
			t.Fatalf("missing per-worker payoff violation: %v", rep.Violations)
		}
	})
	t.Run("assigned", func(t *testing.T) {
		bad := good
		bad.Assigned++
		rep := Run(in, a, &bad, Options{})
		if !hasViolation(rep, CheckSummary, -1) {
			t.Fatalf("missing assigned-count violation: %v", rep.Violations)
		}
	})
	t.Run("payoff-count", func(t *testing.T) {
		bad := good
		bad.Payoffs = good.Payoffs[:1]
		rep := Run(in, a, &bad, Options{})
		if !hasViolation(rep, CheckSummary, -1) {
			t.Fatalf("missing payoff-count violation: %v", rep.Violations)
		}
	})
}

func TestVDPSNonMembership(t *testing.T) {
	in := lineInstance(3, 1, 100, 0)
	// Generate with MaxSize 1: only singleton candidates exist, so a 2-point
	// route is feasible for the worker but not in its strategy space.
	g, err := vdps.Generate(in, vdps.Options{MaxSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := model.NewAssignment(1)
	a.Routes[0] = model.Route{0, 1}
	rep := Run(in, a, nil, Options{Generator: g, Algorithm: "FGT", Converged: true})
	if !hasViolation(rep, CheckVDPS, 0) {
		t.Fatalf("missing membership violation: %v", rep.Violations)
	}
	// The equilibrium certificate is meaningless for a non-member route.
	if !hasSkipped(rep, CheckEquilibrium) {
		t.Errorf("equilibrium not skipped after membership failure: checks %v", rep.Checks)
	}
}

// TestFrontierCorruption breaks one frontier of a candidate with two points
// at a time: its monotonicity, or a state's sequence, which must visit the
// candidate's point set exactly once each. Candidates() returns the
// generator's own slice, so each mutation is visible to the auditor.
func TestFrontierCorruption(t *testing.T) {
	inst := lineInstance(3, 2, 100, 2)
	cases := map[string]func(c *vdps.Candidate){
		// Destroy monotonicity: duplicate the first state.
		"monotonicity": func(c *vdps.Candidate) { c.Frontier = append(c.Frontier, c.Frontier[0]) },
		"repeated point": func(c *vdps.Candidate) {
			c.Frontier[0].Seq = model.Route{c.Points[0], c.Points[0]}
		},
		"point outside the set": func(c *vdps.Candidate) {
			outside := 0
			for slices.Contains(c.Points, outside) {
				outside++
			}
			c.Frontier[0].Seq = model.Route{c.Points[0], outside}
		},
		"wrong length": func(c *vdps.Candidate) { c.Frontier[0].Seq = model.Route{c.Points[0]} },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			g := mustGenerate(t, inst)
			cands := g.Candidates()
			ci := slices.IndexFunc(cands, func(c vdps.Candidate) bool {
				return len(c.Points) == 2 && len(c.Frontier) > 0
			})
			if ci < 0 {
				t.Fatal("no two-point candidate to corrupt")
			}
			if rep := Run(inst, model.NewAssignment(2), nil, Options{Generator: g}); !rep.OK() {
				t.Fatalf("clean frontiers violate: %v", rep.Violations)
			}
			corrupt(&cands[ci])
			rep := Run(inst, model.NewAssignment(2), nil, Options{Generator: g})
			if !hasViolation(rep, CheckVDPS, -1) {
				t.Fatalf("missing frontier violation: %v", rep.Violations)
			}
		})
	}
}

// TestRepairedGeneratorAuditsClean hands the audit a generator whose table
// holds tombstones: after RepairExpiries tightens one point's deadline, the
// frontier check must skip the dropped candidates' empty entries, and an FGT
// result played over the repaired generator must pass every check.
func TestRepairedGeneratorAuditsClean(t *testing.T) {
	in := lineInstance(6, 2, 100, 3)
	g := mustGenerate(t, in)
	mutated := in.Clone()
	mutated.Points[5].Tasks[0].Expiry = 50
	g.Rebind(mutated)
	if _, err := g.RepairExpiries(context.Background(), []int{5}); err != nil {
		t.Fatal(err)
	}
	if len(g.Candidates()) == g.Stats().Candidates {
		t.Fatal("the repair left no tombstone in the table")
	}
	res, err := game.FGT(context.Background(), game.NewState(g), game.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(mutated, res.Assignment, &res.Summary, Options{
		Generator: g, Algorithm: "FGT", Converged: res.Converged,
	})
	if !rep.OK() || !res.Converged {
		t.Fatalf("FGT over a repaired generator (converged %v) failed audit: %v", res.Converged, rep.Violations)
	}
}

func TestRegenerationFailure(t *testing.T) {
	in := lineInstance(4, 1, 100, 0)
	a := model.NewAssignment(1)
	rep := Run(in, a, nil, Options{VDPS: vdps.Options{MaxSets: 1}})
	if !hasViolation(rep, CheckVDPS, -1) {
		t.Fatalf("missing regeneration violation: %v", rep.Violations)
	}
	if !hasSkipped(rep, CheckEquilibrium) {
		t.Errorf("equilibrium not skipped after regeneration failure")
	}
}

func TestFGTEquilibriumBreak(t *testing.T) {
	in := lineInstance(4, 2, 100, 2)
	g := mustGenerate(t, in)
	res, err := game.FGT(context.Background(), game.NewState(g), game.Options{Seed: 1})
	if err != nil || !res.Converged {
		t.Fatalf("FGT: err %v, converged %v", err, res.Converged)
	}
	// Null a busy worker's route: it can profitably re-take its strategy, so
	// the mutated assignment is no equilibrium.
	mut := res.Assignment.Clone()
	nulled := -1
	for w, route := range mut.Routes {
		if len(route) > 0 {
			mut.Routes[w] = nil
			nulled = w
			break
		}
	}
	if nulled < 0 {
		t.Fatal("no non-empty route to null")
	}
	rep := Run(in, mut, nil, Options{Generator: g, Algorithm: "FGT", Converged: true})
	if !hasViolation(rep, CheckEquilibrium, -1) {
		t.Fatalf("missing FGT equilibrium violation: %v", rep.Violations)
	}
}

func TestIEGTEquilibriumBreak(t *testing.T) {
	// Worker 0 holds {0} (payoff 1/2); worker 1 idles while {1} and {2} are
	// free: payoffs are unequal and worker 1 can improve, so the state is
	// not evolutionarily stable.
	in := lineInstance(3, 2, 100, 1)
	g := mustGenerate(t, in)
	a := model.NewAssignment(2)
	a.Routes[0] = model.Route{0}
	rep := Run(in, a, nil, Options{Generator: g, Algorithm: "IEGT", Converged: true})
	if !hasViolation(rep, CheckEquilibrium, -1) {
		t.Fatalf("missing IEGT equilibrium violation: %v", rep.Violations)
	}
}

func TestEquilibriumSkippedWhenNotConverged(t *testing.T) {
	in := lineInstance(3, 2, 100, 1)
	g := mustGenerate(t, in)
	a := model.NewAssignment(2)
	a.Routes[0] = model.Route{0}
	rep := Run(in, a, nil, Options{Generator: g, Algorithm: "FGT", Converged: false})
	if hasViolation(rep, CheckEquilibrium, -2) {
		t.Fatalf("equilibrium checked on a non-converged run: %v", rep.Violations)
	}
	if !hasSkipped(rep, CheckEquilibrium) {
		t.Error("equilibrium not marked skipped")
	}
	// Baselines have no certificate either.
	rep = Run(in, a, nil, Options{Generator: g, Algorithm: "MPTA", Converged: true})
	if !hasSkipped(rep, CheckEquilibrium) {
		t.Error("equilibrium not skipped for MPTA")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Check: CheckStructure, Worker: 3, Detail: "boom"}
	if got := v.String(); got != "structure: worker 3: boom" {
		t.Errorf("String() = %q", got)
	}
	v.Worker = -1
	if got := v.String(); got != "structure: boom" {
		t.Errorf("String() = %q", got)
	}
}

func TestCloseTo(t *testing.T) {
	if !closeTo(1.0000001, 1, 1e-6) {
		t.Error("near-equal values rejected")
	}
	if closeTo(1.1, 1, 1e-6) {
		t.Error("distant values accepted")
	}
	if !closeTo(0, 1e-9, 1e-6) {
		t.Error("near-zero absolute comparison rejected")
	}
}

// A converged Lexifair solve must pass the leximin certificate end to end.
func TestRunCleanLexifair(t *testing.T) {
	in := lineInstance(4, 2, 100, 2)
	g := mustGenerate(t, in)
	res, err := (assign.Lexifair{}).Assign(context.Background(), game.NewState(g))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("Lexifair did not converge on a trivial instance")
	}
	rep := Run(in, res.Assignment, &res.Summary, Options{
		Generator: g, Algorithm: "LEXIFAIR", Converged: true,
	})
	if !rep.OK() {
		t.Fatalf("clean LEXIFAIR result failed audit: %v", rep.Violations)
	}
	found := false
	for _, c := range rep.Checks {
		if c == CheckLexifair {
			found = true
		}
	}
	if !found {
		t.Fatalf("Checks = %v, want CheckLexifair included", rep.Checks)
	}
	if hasSkipped(rep, CheckLexifair) {
		t.Error("CheckLexifair skipped on a converged LEXIFAIR run")
	}
}

// A suboptimal assignment labeled LEXIFAIR must be caught by the leximin
// certificate, and an unconverged run must skip it.
func TestLexifairCertificateBreakAndSkip(t *testing.T) {
	in := lineInstance(4, 2, 100, 2)
	g := mustGenerate(t, in)
	empty := model.NewAssignment(len(in.Workers))
	rep := Run(in, empty, nil, Options{
		Generator: g, Algorithm: "LEXIFAIR", Converged: true,
	})
	if !hasViolation(rep, CheckLexifair, -2) {
		t.Errorf("empty assignment passed the leximin certificate: %v", rep.Violations)
	}
	rep = Run(in, empty, nil, Options{
		Generator: g, Algorithm: "LEXIFAIR", Converged: false,
	})
	if hasViolation(rep, CheckLexifair, -2) {
		t.Error("unconverged run was held to the leximin certificate")
	}
	if !hasSkipped(rep, CheckLexifair) {
		t.Error("unconverged LEXIFAIR run did not record the skip")
	}
}
