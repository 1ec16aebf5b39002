package assign

import (
	"context"
	"errors"

	"fairtask/internal/game"
	"fairtask/internal/payoff"
	"fairtask/internal/vdps"
)

// Exact is a reference solver for the FTA objective. The paper states FTA
// as a lexicographic bi-objective — minimize P_dif, then maximize the
// average payoff — whose literal optimum is degenerate (the empty
// assignment has P_dif = 0). Exact therefore optimizes the standard
// scalarization used by related work (e.g. Chen et al.):
//
//	score = avg(payoffs) - Lambda * P_dif(payoffs)
//
// over the full joint strategy space. FTA is NP-hard, so Exact is only
// usable on small instances; its purpose is measuring the optimality gap of
// the heuristics (see the "optgap" experiment).
type Exact struct {
	// Lambda weights the fairness term. Zero means the default of 1; a
	// non-positive value (use the NoLambda constant) drops the fairness
	// term entirely and maximizes the pure average payoff.
	Lambda float64
	// MaxJointStrategies aborts with ErrSearchTooLarge when the product of
	// per-worker strategy counts exceeds it. Zero means the default of 5e6.
	MaxJointStrategies float64
}

// ErrSearchTooLarge is returned when the joint strategy space exceeds
// Exact.MaxJointStrategies.
var ErrSearchTooLarge = errors.New("assign: joint strategy space too large for exact search")

// NoLambda selects the pure welfare objective in Exact.Lambda: a literal 0
// cannot mean "no fairness term" because the zero value already selects the
// default weight of 1 — the same sentinel pattern as game.NoEpsilon and
// evo.NoTolerance. Any negative value behaves the same.
const NoLambda = -1

// Score is the scalarized FTA objective Exact maximizes.
func Score(payoffs []float64, lambda float64) float64 {
	return payoff.Average(payoffs) - lambda*payoff.Difference(payoffs)
}

// Name implements Assigner.
func (Exact) Name() string { return "EXACT" }

// Assign implements Assigner.
func (e Exact) Assign(ctx context.Context, s *game.State) (*game.Result, error) {
	if len(s.Current) == 0 {
		return nil, game.ErrNoWorkers
	}
	// Of equally scoring joint strategies the first enumerated wins, so the
	// enumeration follows payoff order.
	s.SortByPayoff()
	lambda := e.Lambda
	if lambda < 0 {
		lambda = 0 // NoLambda: pure average payoff
	} else if lambda == 0 {
		lambda = 1
	}
	limit := e.MaxJointStrategies
	if limit <= 0 {
		limit = 5e6
	}
	space := 1.0
	for _, list := range s.Lists() {
		space *= float64(len(list) + 1)
		if space > limit {
			return nil, ErrSearchTooLarge
		}
	}

	n := len(s.Current)
	payoffs := make([]float64, n)
	best := make([]vdps.StrategyRef, n)
	cur := make([]vdps.StrategyRef, n)
	for i := range best {
		best[i] = game.Idle
		cur[i] = game.Idle
	}
	bestScore := Score(payoffs, lambda) // all-null baseline

	var leaves int
	canceled := false
	var rec func(w int)
	rec = func(w int) {
		if canceled {
			return
		}
		if w == n {
			leaves++
			// Poll cancellation every 8192 complete joint strategies.
			if leaves&0x1fff == 0 && ctx.Err() != nil {
				canceled = true
				return
			}
			if sc := Score(payoffs, lambda); sc > bestScore+1e-12 {
				bestScore = sc
				copy(best, cur)
			}
			return
		}
		// Null choice.
		payoffs[w] = 0
		rec(w + 1)
		for _, r := range s.List(w) {
			if !s.Available(w, r) {
				continue
			}
			s.Switch(w, r)
			cur[w] = r
			payoffs[w] = r.Payoff
			rec(w + 1)
			s.Switch(w, game.Idle)
			cur[w] = game.Idle
			payoffs[w] = 0
		}
	}
	rec(0)
	if canceled {
		return nil, ctx.Err()
	}

	for w, r := range best {
		if r.Cand != game.Null {
			s.Switch(w, r)
		}
	}
	return &game.Result{
		Assignment: s.Assignment(),
		Summary:    s.Summary(),
		Iterations: 1,
		Converged:  true,
	}, nil
}
