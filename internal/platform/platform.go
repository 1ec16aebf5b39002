// Package platform is the spatial-crowdsourcing platform substrate: it runs
// task assignment over many distribution centers in parallel (the paper
// notes in §VII-A that assignment across centers is independent) and
// simulates the worker lifecycle over repeated assignment epochs — workers
// go offline while executing an assigned delivery point sequence and return
// when done, tasks expire if left unassigned, and new tasks may arrive.
package platform

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"fairtask/internal/assign"
	"fairtask/internal/audit"
	"fairtask/internal/fault"
	"fairtask/internal/game"
	"fairtask/internal/model"
	"fairtask/internal/obs"
	"fairtask/internal/payoff"
	"fairtask/internal/vdps"
)

// Options configure a one-shot multi-center assignment.
type Options struct {
	// VDPS configures candidate generation per center.
	VDPS vdps.Options
	// Parallelism bounds concurrent per-center solves. Zero means
	// runtime.GOMAXPROCS(0).
	Parallelism int
	// Recorder receives one obs.VDPSEvent per successful candidate
	// generation, one obs.SolveEvent per solved center and one
	// obs.AssignEvent for the whole assignment. Nil disables telemetry.
	Recorder obs.Recorder
	// Audit enables independent re-verification of every per-center result;
	// the reports land in Result.Audit. The options' State, Solver and
	// Converged fields are overwritten per center: the audit reads the
	// state the center's solver played, so it adds no second candidate
	// generation or strategy-space build, and certifies with that solver.
	// Nil (the default) disables auditing. Violations are reported, not
	// fatal — policy is the caller's (the library fails the solve, the HTTP
	// service returns the report).
	Audit *audit.Options
	// Retry retries each per-center solve attempt (candidate generation +
	// solver run) under this policy. Nil or MaxAttempts < 2 disables
	// retrying. Context cancellation and deadline expiry are never retried.
	Retry *fault.RetryPolicy
	// Degrade enables the exact→sampled→greedy degradation ladder for
	// per-center solves; see Degrade. Nil (the default) means exact-only:
	// a failed solve fails the assignment.
	Degrade *Degrade
}

// Result is the outcome of a one-shot multi-center assignment.
type Result struct {
	// PerCenter holds each instance's result, indexed like
	// Problem.Instances.
	PerCenter []*game.Result
	// Payoffs concatenates all workers' payoffs across centers.
	Payoffs []float64
	// Difference is P_dif over all workers of all centers.
	Difference float64
	// Average is the mean payoff over all workers of all centers.
	Average float64
	// Elapsed is the wall-clock time of the whole solve.
	Elapsed time.Duration
	// Audit holds the per-center audit reports when Options.Audit was set,
	// indexed like PerCenter (nil entries for centers without workers,
	// which produce empty assignments without a solver run).
	Audit []*audit.Report
	// Degraded is the worst degradation rung that served any center
	// ("" = every center solved exactly, RungSampled, RungGreedy); see
	// the per-center rungs in PerCenter[i].Degraded.
	Degraded string
}

// AuditOK reports whether every executed audit passed. It is vacuously true
// when auditing was disabled.
func (r *Result) AuditOK() bool {
	for _, rep := range r.Audit {
		if rep != nil && !rep.OK() {
			return false
		}
	}
	return true
}

// AuditErr returns the first failed audit report's error, wrapped with its
// center, or nil when every audit passed.
func (r *Result) AuditErr(p *model.Problem) error {
	for i, rep := range r.Audit {
		if rep != nil && !rep.OK() {
			return fmt.Errorf("center %d: %w", p.Instances[i].CenterID, rep.Err())
		}
	}
	return nil
}

// ErrNoInstances is returned for a problem without instances.
var ErrNoInstances = errors.New("platform: problem has no instances")

// Assign solves every instance of the problem with the given algorithm,
// fanning centers out over Parallelism goroutines, and aggregates the
// paper's metrics over the full worker population.
func Assign(p *model.Problem, solver assign.Assigner, opt Options) (*Result, error) {
	return AssignContext(context.Background(), p, solver, opt)
}

// AssignContext is Assign with cancellation: centers not yet started when
// ctx is done are skipped, in-flight per-center solves observe ctx at their
// iteration boundaries and stop early, and the context error is returned.
func AssignContext(ctx context.Context, p *model.Problem, solver assign.Assigner, opt Options) (*Result, error) {
	if len(p.Instances) == 0 {
		return nil, ErrNoInstances
	}
	par := opt.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	ctx, asp := obs.StartSpan(ctx, "assign")
	asp.SetAttrInt("centers", len(p.Instances))
	asp.SetAttr("algorithm", solver.Name())
	defer asp.End()
	start := time.Now()
	res := &Result{PerCenter: make([]*game.Result, len(p.Instances))}
	if opt.Audit != nil {
		res.Audit = make([]*audit.Report, len(p.Instances))
	}
	sem := make(chan struct{}, par)
	// solving counts the centers handed to a solver. Telemetry reports
	// min(par, solving), the concurrency the solve could use: a one-center
	// solve runs one center at a time whatever par allows.
	solving := 0
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error

	for i := range p.Instances {
		if err := ctx.Err(); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			break
		}
		// Centers without workers yield an empty result without a solver
		// run (or an audit): there is nothing to assign.
		if len(p.Instances[i].Workers) == 0 {
			res.PerCenter[i] = &game.Result{
				Assignment: model.NewAssignment(0),
				Converged:  true,
			}
			continue
		}
		i := i
		solving++
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			csp := asp.Child("center.solve")
			csp.SetAttrInt("center", p.Instances[i].CenterID)
			defer csp.End()
			r, rep, err := SolveInstance(obs.ContextWithSpan(ctx, csp), &p.Instances[i], solver, opt)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("center %d: %w", p.Instances[i].CenterID, err)
				}
				return
			}
			res.PerCenter[i] = r
			if res.Audit != nil {
				res.Audit[i] = rep
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	for _, r := range res.PerCenter {
		res.Payoffs = append(res.Payoffs, r.Summary.Payoffs...)
		res.Degraded = worseRung(res.Degraded, r.Degraded)
	}
	res.Difference = payoff.Difference(res.Payoffs)
	res.Average = payoff.Average(res.Payoffs)
	res.Elapsed = time.Since(start)
	if opt.Recorder != nil {
		var points int
		for i := range p.Instances {
			points += len(p.Instances[i].Points)
		}
		opt.Recorder.RecordAssign(obs.AssignEvent{
			Algorithm:   solver.Name(),
			Centers:     len(p.Instances),
			Workers:     len(res.Payoffs),
			Points:      points,
			Parallelism: min(par, solving),
			Elapsed:     res.Elapsed,
		})
	}
	return res, nil
}
