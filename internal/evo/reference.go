// This file retains the pre-index IEGT implementation verbatim so the
// optimized loop can be differentially tested against it: same seed and
// options must produce a bit-identical assignment, iteration count,
// convergence flag, and trace. It is the executable specification of the
// solver's semantics, not a fallback — do not optimize it.

package evo

import (
	"context"
	"math/rand"

	"fairtask/internal/fairness"
	"fairtask/internal/game"
	"fairtask/internal/vdps"
)

// ReferenceIEGT is the direct transcription of Algorithm 3 the optimized
// IEGT is pinned against: strategy selection draws from fresh candidate
// lists gathered in payoff-sorted order, per-round population statistics
// materialize the payoff slice, and traced rounds re-run payoff.Summarize
// over the whole instance.
func ReferenceIEGT(ctx context.Context, g *vdps.Generator, opt Options) (*game.Result, error) {
	opt = opt.withDefaults()
	s := game.NewState(g)
	s.SortByPayoff()
	if len(s.Current) == 0 {
		return nil, game.ErrNoWorkers
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	s.RandomInit(rng)

	res := &game.Result{}
	for iter := 1; iter <= opt.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ubar := referenceAverage(populationPayoffs(s))
		changes := 0
		for w := range s.Current {
			if s.Payoffs[w] >= ubar {
				continue
			}
			if opt.MutationRate > 0 && rng.Float64() < opt.MutationRate {
				if si, ok := referenceRandomAvailable(s, w, rng); ok {
					s.Switch(w, si)
					changes++
					continue
				}
			}
			if si, ok := referenceRandomBetter(s, w, rng); ok {
				s.Switch(w, si)
				changes++
			}
		}
		res.Iterations = iter
		res.Switches += changes
		if opt.Trace {
			sum := s.Summary()
			res.Trace = append(res.Trace, game.IterationStat{
				Iteration:  iter,
				Changes:    changes,
				Potential:  fairness.Potential(fairness.DefaultParams(), s.Payoffs),
				PayoffDiff: sum.Difference,
				AvgPayoff:  sum.Average,
			})
		}
		if changes == 0 || payoffsEqual(populationPayoffs(s), opt.Tolerance) {
			res.Converged = true
			break
		}
	}
	res.Assignment = s.Assignment()
	res.Summary = s.Summary()
	res.Potential = fairness.Potential(fairness.DefaultParams(), s.Payoffs)
	return res, nil
}

// referenceAverage is the slice form of populationAverage the pre-index
// solver used.
func referenceAverage(p []float64) float64 {
	if len(p) == 0 {
		return 0
	}
	var sum float64
	for _, v := range p {
		sum += v
	}
	return sum / float64(len(p))
}

// referenceRandomBetter is randomBetterStrategy with the original
// allocate-per-call candidate list.
func referenceRandomBetter(s *game.State, w int, rng *rand.Rand) (int, bool) {
	cur := 0.0
	if s.Current[w] != game.Null {
		cur = s.Payoffs[w]
	}
	var better []int
	for si := range s.Strategies[w] {
		if si == s.Current[w] {
			continue
		}
		if s.Strategies[w][si].Payoff > cur && s.Available(w, si) {
			better = append(better, si)
		}
	}
	if len(better) == 0 {
		return game.Null, false
	}
	return better[rng.Intn(len(better))], true
}

// referenceRandomAvailable is randomAvailableStrategy with the original
// allocate-per-call candidate list.
func referenceRandomAvailable(s *game.State, w int, rng *rand.Rand) (int, bool) {
	var avail []int
	for si := range s.Strategies[w] {
		if si != s.Current[w] && s.Available(w, si) {
			avail = append(avail, si)
		}
	}
	if len(avail) == 0 {
		return game.Null, false
	}
	return avail[rng.Intn(len(avail))], true
}
