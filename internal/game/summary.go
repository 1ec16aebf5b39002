package game

import (
	"fairtask/internal/payoff"
)

// SummaryTracker maintains the per-iteration payoff statistics the solver
// traces (IterationStat.PayoffDiff and AvgPayoff) incrementally.
//
// The pre-index solvers re-ran payoff.Summarize over the whole instance
// every traced round: materialize the assignment (cloning every route),
// recompute every worker's payoff from the travel model, then aggregate —
// O(W * route) travel evaluations per round. The tracker instead recomputes
// only the payoff of the worker that switched, with the same payoff.Worker
// call Summarize uses on the same route, so the maintained vector — and the
// Difference/Average derived from it — is bit-identical to what Summarize
// would report, at O(route) per switch plus O(W log W) per traced round.
//
// The tracked vector deliberately re-derives payoffs from the travel model
// rather than mirroring State.Payoffs: the VDPS-cached strategy payoffs are
// computed from candidate aggregates whose summation order can differ from
// the route-order recomputation in the final ulps, and traces must stay
// bit-comparable with the reference solvers and the end-of-run Summary.
type SummaryTracker struct {
	s       *State
	pay     []float64
	scratch []float64
}

// NewSummaryTracker captures the state's current per-worker payoffs.
func NewSummaryTracker(s *State) *SummaryTracker {
	t := &SummaryTracker{
		s:       s,
		pay:     make([]float64, len(s.Current)),
		scratch: make([]float64, len(s.Current)),
	}
	for w := range s.Current {
		t.Update(w)
	}
	return t
}

// Update refreshes worker w's tracked payoff; call it after every
// State.Switch of w.
func (t *SummaryTracker) Update(w int) {
	r := t.s.Current[w]
	if r.Cand == Null {
		t.pay[w] = 0
		return
	}
	t.pay[w] = payoff.Worker(t.s.Instance(), w, t.s.StrategySeq(r))
}

// DiffAvg returns the payoff difference P_dif (Equation 2) and the mean
// payoff of the tracked vector, bit-identical to the Difference and Average
// fields payoff.Summarize would compute for the current assignment.
func (t *SummaryTracker) DiffAvg() (diff, avg float64) {
	return payoff.DifferenceBuf(t.pay, t.scratch), payoff.Average(t.pay)
}
