// This file retains the pre-index solver implementation verbatim so the
// optimized loops can be differentially tested against it: same seed and
// options must produce a bit-identical assignment, iteration count,
// convergence flag, and trace. It is the executable specification of the
// solver's semantics, not a fallback — do not optimize it.

package game

import (
	"context"
	"math/rand"

	"fairtask/internal/fairness"
	"fairtask/internal/vdps"
)

// ReferenceFGT is the direct transcription of Algorithm 2 the optimized FGT
// is pinned against: best responses scan a payoff-sorted strategy list and
// evaluate the reference fairness.IAU / fairness.PriorityIAU over a scratch
// copy of all payoffs (O(W) per candidate strategy), and traced rounds
// re-run payoff.Summarize over the whole instance.
func ReferenceFGT(ctx context.Context, g *vdps.Generator, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	s := NewState(g)
	s.SortByPayoff()
	if len(s.Current) == 0 {
		return nil, ErrNoWorkers
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	ReferenceRandomInit(s, rng)

	priorities := workerPriorities(s.Instance(), opt.UsePriorities)

	res := &Result{}
	scratch := make([]float64, len(s.Payoffs))
	order := make([]int, len(s.Current))
	for i := range order {
		order[i] = i
	}
	for iter := 1; iter <= opt.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if opt.RandomOrder {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		changes := 0
		for _, w := range order {
			if best, ok := referenceBestResponse(s, w, opt, priorities, scratch); ok && best != s.Current[w] {
				s.Switch(w, best)
				changes++
			}
		}
		res.Iterations = iter
		res.Switches += changes
		if opt.Trace {
			sum := s.Summary()
			res.Trace = append(res.Trace, IterationStat{
				Iteration:  iter,
				Changes:    changes,
				Potential:  fairness.Potential(opt.Fairness, s.Payoffs),
				PayoffDiff: sum.Difference,
				AvgPayoff:  sum.Average,
			})
		}
		if changes == 0 {
			res.Converged = true
			break
		}
	}
	res.Assignment = s.Assignment()
	res.Summary = s.Summary()
	res.Potential = fairness.Potential(opt.Fairness, s.Payoffs)
	return res, nil
}

// referenceBestResponse evaluates every candidate strategy's IAU over a
// scratch payoff vector, exactly like the pre-index solver. The once
// duplicated utility(0) evaluation for a Null incumbent is folded into one
// call; the selected strategy is unaffected.
func referenceBestResponse(s *State, w int, opt Options, priorities []float64, scratch []float64) (int, bool) {
	if len(s.Strategies[w]) == 0 {
		return Null, false
	}
	copy(scratch, s.Payoffs)

	utility := func(p float64) float64 {
		scratch[w] = p
		if priorities != nil {
			return fairness.PriorityIAU(opt.Fairness, scratch, priorities, w)
		}
		return fairness.IAU(opt.Fairness, scratch, w)
	}

	best := s.Current[w]
	var bestU float64
	if best == Null {
		bestU = utility(0)
	} else {
		bestU = utility(s.Payoffs[w])
		// The null strategy is always available.
		if u := utility(0); u > bestU+opt.EpsilonUtility {
			best, bestU = Null, u
		}
	}
	for si := range s.Strategies[w] {
		if si == s.Current[w] || !s.Available(w, si) {
			continue
		}
		if u := utility(s.Strategies[w][si].Payoff); u > bestU+opt.EpsilonUtility {
			best, bestU = si, u
		}
	}
	return best, true
}

// ReferenceRandomInit is the initial assignment of Algorithms 2 and 3
// written as a scan of the strategy lists: for each worker in a random
// order it gathers every available singleton entry of its list and draws
// among them with NthBest. The reference solvers start from it, and
// State.RandomInit, which draws from the candidate table instead, must
// leave the same state and RNG stream.
func ReferenceRandomInit(s *State, rng *rand.Rand) {
	order := rng.Perm(len(s.Current))
	for _, w := range order {
		var singles []int
		for si, r := range s.Strategies[w] {
			if s.gen.SetSize(r.Cand) == 1 && s.Available(w, si) {
				singles = append(singles, si)
			}
		}
		if len(singles) == 0 {
			s.Switch(w, Null)
			continue
		}
		s.Switch(w, s.NthBest(w, singles, rng.Intn(len(singles))))
	}
}
