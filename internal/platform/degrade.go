package platform

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fairtask/internal/assign"
	"fairtask/internal/audit"
	"fairtask/internal/fault"
	"fairtask/internal/game"
	"fairtask/internal/model"
	"fairtask/internal/obs"
	"fairtask/internal/vdps"
)

// Degradation-ladder rung names, recorded in game.Result.Degraded,
// Result.Degraded and obs.SolveEvent.Degraded. The exact rung is the empty
// string: a result without a rung label is a full-fidelity solve.
const (
	// RungSampled replaces the exact DP candidate generation with randomized
	// sampled generation (vdps.GenerateSampled) and re-runs the configured
	// solver over the sampled strategy spaces.
	RungSampled = "sampled"
	// RungGreedy is the last resort: greedy assignment (assign.GTA) over
	// sampled candidates — cheap, fairness-blind, but still a valid
	// assignment.
	RungGreedy = "greedy"
)

// Degrade configures the exact→sampled→greedy degradation ladder. When a
// rung's budget expires, its solve fails, or an armed failpoint fires, the
// next rung engages; the ladder is monotone — a rung never serves a request
// unless every better rung failed. Degraded (non-exact) results are always
// audited for the structural guarantees (route validity, disjointness,
// deadlines, VDPS membership) before being accepted, so a fallback can
// never ship an invalid assignment.
type Degrade struct {
	// ExactBudget is the wall-clock allowance of the exact rung, covering
	// DP candidate generation, the solve, and any retries. Zero means 10s.
	// Negative skips the exact rung entirely (useful for tests and for
	// instances known to be DP-hostile).
	ExactBudget time.Duration
	// SampledBudget is the wall-clock allowance of the sampled rung. Zero
	// means ExactBudget when that is positive, otherwise 10s. Negative
	// skips the rung. The greedy rung has no budget: it runs under the
	// caller's context alone.
	SampledBudget time.Duration
	// Sample configures candidate generation for the sampled and greedy
	// rungs. A zero Epsilon inherits the exact rung's VDPS.Epsilon; the
	// remaining zero fields take the vdps.SampleOptions defaults.
	Sample vdps.SampleOptions
}

// withDefaults fills the ladder's zero fields against the exact-rung VDPS
// options.
func (d Degrade) withDefaults(vopt vdps.Options) Degrade {
	if d.ExactBudget == 0 {
		d.ExactBudget = 10 * time.Second
	}
	if d.SampledBudget == 0 {
		// Inherit only a real allowance: with the exact rung disabled
		// (negative budget) the sampled rung gets the stock 10s, not the
		// disable marker.
		if d.ExactBudget > 0 {
			d.SampledBudget = d.ExactBudget
		} else {
			d.SampledBudget = 10 * time.Second
		}
	}
	if d.Sample.Epsilon == 0 {
		d.Sample.Epsilon = vopt.Epsilon
	}
	if d.Sample.MaxSize == 0 {
		d.Sample.MaxSize = vopt.MaxSize
	}
	return d
}

// fpSolve is hit at the start of every per-center solve attempt (every rung,
// every retry), so chaos specs can fail whole solves independently of the
// generation- and round-level failpoints.
var fpSolve = fault.Point("platform.solve")

// rung is one step of the degradation ladder.
type rung struct {
	// label names the rung in its span and errors: "exact", "sampled" or
	// "greedy".
	label string
	// name is the rung's Degraded label; empty for the exact rung and for
	// a sampled solve the caller asked for.
	name string
	// budget bounds the rung's wall clock including retries; zero means
	// no budget beyond the caller's context.
	budget time.Duration
	// solver computes the assignment from the rung's candidates.
	solver assign.Assigner
	// generate builds the rung's candidate generator.
	generate func(ctx context.Context, in *model.Instance) (*vdps.Generator, error)
}

// SolveInstance generates candidates for one center and runs the solver,
// retrying under Options.Retry and walking the Options.Degrade ladder when
// rungs fail. The returned audit report is non-nil when Options.Audit was
// set (any rung) or when a degraded rung served the result (degraded
// results are always audited). Violations in the final report are reported,
// not fatal — policy is the caller's; violations on degraded rungs reject
// the rung and engage the next one.
func SolveInstance(ctx context.Context, in *model.Instance, solver assign.Assigner, opt Options) (*game.Result, *audit.Report, error) {
	exactGen := func(ctx context.Context, in *model.Instance) (*vdps.Generator, error) {
		return vdps.GenerateContext(ctx, in, opt.VDPS)
	}
	if opt.Degrade == nil {
		return solveRung(ctx, in, rung{label: "exact", solver: solver, generate: exactGen}, opt)
	}

	d := opt.Degrade.withDefaults(opt.VDPS)
	sampledGen := sampledGenerator(d.Sample)
	ladder := []rung{
		{label: "exact", budget: d.ExactBudget, solver: solver, generate: exactGen},
		{label: RungSampled, name: RungSampled, budget: d.SampledBudget, solver: solver, generate: sampledGen},
		{label: RungGreedy, name: RungGreedy, solver: assign.GTA{}, generate: sampledGen},
	}

	var errs []error
	for _, rg := range ladder {
		if rg.budget < 0 {
			continue // rung disabled by configuration
		}
		res, rep, err := solveRung(ctx, in, rg, opt)
		if err == nil {
			return res, rep, nil
		}
		errs = append(errs, fmt.Errorf("%s rung: %w", rg.label, err))
		// A dead parent context means the caller is out of time, not the
		// rung: stop the ladder instead of burning CPU on fallbacks nobody
		// will read.
		if ctx.Err() != nil {
			return nil, nil, errors.Join(errs...)
		}
	}
	return nil, nil, fmt.Errorf("platform: degradation ladder exhausted: %w", errors.Join(errs...))
}

// SolveSampled generates one center's candidates with vdps.GenerateSampled
// and runs the solver on them, under Options.Retry, Options.Audit and
// Options.Recorder as SolveInstance does. It runs no degradation ladder:
// the caller chose sampled generation, so the result's Degraded stays
// empty. Options.VDPS and Options.Degrade are ignored.
func SolveSampled(ctx context.Context, in *model.Instance, solver assign.Assigner, sample vdps.SampleOptions, opt Options) (*game.Result, *audit.Report, error) {
	return solveRung(ctx, in, rung{label: RungSampled, solver: solver, generate: sampledGenerator(sample)}, opt)
}

// sampledGenerator returns a rung generator running vdps.GenerateSampled.
func sampledGenerator(sample vdps.SampleOptions) func(context.Context, *model.Instance) (*vdps.Generator, error) {
	return func(ctx context.Context, in *model.Instance) (*vdps.Generator, error) {
		return vdps.GenerateSampledContext(ctx, in, sample)
	}
}

// solveRung runs one ladder rung: an optional per-rung budget around
// generation + solve (+ retries under Options.Retry), the per-solve
// failpoint, telemetry, and the rung's audit. Degraded rungs are audited
// unconditionally and an audit violation fails the rung. It is the only
// code that emits Options.Recorder's per-center events: one VDPSEvent per
// successful generation and one SolveEvent per served solve.
func solveRung(ctx context.Context, in *model.Instance, rg rung, opt Options) (*game.Result, *audit.Report, error) {
	rsp := obs.SpanFromContext(ctx).Child("rung." + rg.label)
	defer rsp.End()
	rctx := obs.ContextWithSpan(ctx, rsp)
	if rg.budget > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(rctx, rg.budget)
		defer cancel()
	}

	var (
		res      *game.Result
		g        *vdps.Generator
		attempts int
		// elapsed is the wall time of the latest attempt's state build and
		// solve: on success, the attempt that served the result.
		elapsed time.Duration
	)
	attempt := func(actx context.Context) error {
		attempts++
		asp := rsp.Child("attempt")
		asp.SetAttrInt("n", attempts)
		defer asp.End()
		actx = obs.ContextWithSpan(actx, asp)
		if err := fpSolve.Hit(actx); err != nil {
			return fmt.Errorf("platform: solve: %w", err)
		}
		start := time.Now()
		var err error
		g, err = rg.generate(actx, in)
		if err != nil {
			return err
		}
		if opt.Recorder != nil {
			st := g.Stats()
			opt.Recorder.RecordVDPS(obs.VDPSEvent{
				Points:     len(in.Points),
				Workers:    len(in.Workers),
				Subsets:    st.SubsetsExplored,
				Pruned:     st.ExtensionsPruned,
				Candidates: st.Candidates,
				Elapsed:    time.Since(start),
			})
		}
		start = time.Now()
		bsp := asp.Child("state.build")
		s := game.NewState(g)
		bsp.End()
		res, err = rg.solver.Assign(actx, s)
		elapsed = time.Since(start)
		return err
	}
	var err error
	if opt.Retry != nil && opt.Retry.MaxAttempts > 1 {
		err = fault.NewRetrier(*opt.Retry).Do(rctx, attempt)
	} else {
		err = attempt(rctx)
	}
	if err != nil {
		return nil, nil, err
	}
	res.Degraded = rg.name

	if opt.Recorder != nil {
		opt.Recorder.RecordSolve(obs.SolveEvent{
			Algorithm:  rg.solver.Name(),
			CenterID:   in.CenterID,
			Workers:    len(in.Workers),
			Points:     len(in.Points),
			Iterations: res.Iterations,
			Converged:  res.Converged,
			Switches:   res.Switches,
			Elapsed:    elapsed,
			Degraded:   rg.name,
			Difference: res.Summary.Difference,
			Average:    res.Summary.Average,
			Potential:  res.Potential,
		})
	}

	ausp := rsp.Child("audit")
	rep, err := auditRung(in, rg, res, g, opt)
	ausp.End()
	if err != nil {
		return nil, nil, err
	}
	return res, rep, nil
}

// auditRung audits one rung's result. The exact rung is audited exactly when
// Options.Audit is set, with the caller's parameters. Degraded rungs are
// always audited — a fallback must never ship an invalid assignment — but
// when the caller provided no audit parameters the equilibrium certificate
// is skipped (Converged forced false): the caller's fairness weights are
// unknown, and the rung's job is the structural guarantees (routes,
// deadlines, disjointness, VDPS membership). A degraded rung failing its
// audit is a rung failure, surfaced as an error so the ladder falls through.
func auditRung(in *model.Instance, rg rung, res *game.Result, g *vdps.Generator, opt Options) (*audit.Report, error) {
	if opt.Audit == nil && rg.name == "" {
		return nil, nil
	}
	var o audit.Options
	if opt.Audit != nil {
		o = *opt.Audit
	}
	o.Generator = g
	o.Algorithm = rg.solver.Name()
	o.Converged = res.Converged && opt.Audit != nil
	rep := audit.Run(in, res.Assignment, &res.Summary, o)
	if rg.name != "" && !rep.OK() {
		return nil, fmt.Errorf("platform: %s rung failed verification: %w", rg.name, rep.Err())
	}
	return rep, nil
}

// worseRung returns the lower (more degraded) of two rung labels, where
// "" (exact) < RungSampled < RungGreedy.
func worseRung(a, b string) string {
	rank := func(r string) int {
		switch r {
		case RungGreedy:
			return 2
		case RungSampled:
			return 1
		default:
			return 0
		}
	}
	if rank(b) > rank(a) {
		return b
	}
	return a
}
