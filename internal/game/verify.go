package game

import (
	"fmt"
	"slices"

	"fairtask/internal/fairness"
	"fairtask/internal/model"
)

// Lookup returns the index of worker w's strategy whose visiting sequence
// is r, or Null when r is not in w's strategy space. It is the one
// membership rule: LoadAssignment resolves routes through it, and the audit
// checks membership with it.
func (s *State) Lookup(w int, r model.Route) int {
	for si := range s.Strategies[w] {
		if slices.Equal(s.StrategySeq(w, si), r) {
			return si
		}
	}
	return Null
}

// LoadAssignment sets the state's joint strategy to match an existing
// assignment, resolving each non-empty route with Lookup. It fails if a
// route is not in the worker's strategy space (e.g. the assignment came
// from a different instance or candidate generation options) or overlaps a
// route loaded before it.
func (s *State) LoadAssignment(a *model.Assignment) error {
	if len(a.Routes) != len(s.Current) {
		return fmt.Errorf("game: assignment has %d routes for %d workers",
			len(a.Routes), len(s.Current))
	}
	for w, r := range a.Routes {
		if len(r) == 0 {
			continue
		}
		si := s.Lookup(w, r)
		if si == Null {
			return fmt.Errorf("game: route %v not in worker %d's strategy space", r, w)
		}
		if !s.Available(w, si) {
			return fmt.Errorf("game: route %v for worker %d conflicts with another worker", r, w)
		}
		s.Switch(w, si)
	}
	return nil
}

// NEOptions configure the Nash-equilibrium certificate.
type NEOptions struct {
	// Fairness holds the IAU weights; the zero value is replaced by the
	// paper's default alpha = beta = 0.5.
	Fairness fairness.Params
	// Tol is the utility-gain threshold below which a deviation does not
	// refute the equilibrium. It should be at least the solver's
	// EpsilonUtility. Zero means the numerical default of 1e-9; any
	// negative value demands a strict equilibrium where any improving
	// deviation refutes, which the zero value cannot express.
	Tol float64
	// UsePriorities switches the certificate to the priority-aware IAU
	// extension, reading worker priorities from the instance as FGT does.
	// It must match the solve.
	UsePriorities bool
}

// VerifyNE checks that the joint strategy loaded into s (see
// LoadAssignment) is a pure Nash equilibrium of the FTA game under the IAU
// utility: no worker has an available strategy (or Null) with utility more
// than Tol above its current one. It returns nil when the state is an
// equilibrium and a descriptive error otherwise; weights outside the
// monotone IAU domain fail with ErrNonMonotoneIAU. It does not modify s.
//
// This is the certificate form of Algorithm 2's termination condition;
// callers can use it to audit assignments produced elsewhere.
func VerifyNE(s *State, opt NEOptions) error {
	prm := opt.Fairness
	if prm == (fairness.Params{}) {
		prm = fairness.DefaultParams()
	}
	tol := opt.Tol
	if tol < 0 {
		tol = 0 // strict certificate: any improving deviation refutes
	} else if tol == 0 {
		tol = 1e-9
	}
	u, err := newIAUScratch(prm, workerPriorities(s.Instance(), opt.UsePriorities), len(s.Current))
	if err != nil {
		return err
	}
	// Inside the monotone domain the top available strategy is each
	// worker's best deviation, so one O(W) evaluation per worker (plus the
	// going-idle check) certifies the equilibrium.
	for w := range s.Current {
		u.load(s.Payoffs)
		cur := u.at(w, s.Payoffs[w])
		if s.Current[w] != Null {
			if v := u.at(w, 0); v > cur+tol {
				return fmt.Errorf("game: worker %d improves IAU %g -> %g by going idle", w, cur, v)
			}
		}
		if top := s.TopAvailable(w); top != s.Current[w] {
			if v := u.at(w, s.Strategies[w][top].Payoff); v > cur+tol {
				return fmt.Errorf("game: worker %d improves IAU %g -> %g via strategy %v (not a Nash equilibrium)",
					w, cur, v, s.StrategySeq(w, top))
			}
		}
	}
	return nil
}
