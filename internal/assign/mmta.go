package assign

import (
	"context"
	"math"

	"fairtask/internal/game"
)

// MMTA is a Max-Min fair Task Assignment extension: it heuristically
// maximizes the minimum worker payoff, the fairness notion of Ye et al.
// discussed in the paper's related work (§II). MMTA is not one of the
// paper's four evaluated methods; it is provided as an additional
// descriptive model of fairness (the paper's future-work direction) and as
// a point of comparison against the difference-minimizing game approaches.
//
// The heuristic repeatedly lets the currently worst-off worker that can
// still improve take its best available strategy (State.TopAvailable). Each
// switch strictly raises that worker's payoff and leaves the others
// untouched, so the total payoff strictly increases and the loop terminates
// at a state where the minimum cannot be raised by any single-worker move.
type MMTA struct{}

// Name implements Assigner.
func (MMTA) Name() string { return "MMTA" }

// Assign implements Assigner.
func (MMTA) Assign(ctx context.Context, s *game.State) (*game.Result, error) {
	if len(s.Current) == 0 {
		return nil, game.ErrNoWorkers
	}
	iterations := 0
	for {
		iterations++
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Pick the worst-off worker that has an available strictly better
		// strategy.
		w, si := -1, game.Null
		worst := math.Inf(1)
		for cand := range s.Current {
			cur := s.Payoffs[cand]
			if cur >= worst {
				continue
			}
			if better := bestAvailableAbove(s, cand, cur); better != game.Null {
				w, si, worst = cand, better, cur
			}
		}
		if w == -1 {
			break
		}
		s.Switch(w, si)
	}
	return &game.Result{
		Assignment: s.Assignment(),
		Summary:    s.Summary(),
		Iterations: iterations,
		Converged:  true,
	}, nil
}

// bestAvailableAbove returns the worker's top available strategy when its
// payoff is strictly above the threshold, or game.Null. Callers pass the
// worker's own payoff, so a strategy above it is never the incumbent.
func bestAvailableAbove(s *game.State, w int, threshold float64) int {
	if top := s.TopAvailable(w); top != game.Null && s.Strategies[w][top].Payoff > threshold {
		return top
	}
	return game.Null
}
