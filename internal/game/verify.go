package game

import (
	"fmt"
	"slices"

	"fairtask/internal/fairness"
	"fairtask/internal/model"
	"fairtask/internal/vdps"
)

// Lookup returns worker w's strategy whose visiting sequence is r — the
// entry of w's list — or Idle when r is not in w's strategy space. It is
// the one membership rule: LoadAssignment resolves routes through it, and
// the audit checks membership with it where a route has no witness. It
// builds the lists on a state that has none.
func (s *State) Lookup(w int, r model.Route) vdps.StrategyRef {
	for _, ref := range s.List(w) {
		if slices.Equal(s.StrategySeq(ref), r) {
			return ref
		}
	}
	return Idle
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
		ref := s.Lookup(w, r)
		if ref.Cand == Null {
			return fmt.Errorf("game: route %v not in worker %d's strategy space", r, w)
		}
		if err := s.hold(w, ref); err != nil {
			return err
		}
	}
	return nil
}

// LoadStrategies sets the state's joint strategy to refs, one per worker:
// each Idle or a strategy of its worker, as Lookup or vdps.Rule.Strategy
// returns it. It is LoadAssignment for routes already resolved, and fails
// as it does on a strategy that overlaps one loaded before it.
func (s *State) LoadStrategies(refs []vdps.StrategyRef) error {
	if len(refs) != len(s.Current) {
		return fmt.Errorf("game: %d strategies for %d workers", len(refs), len(s.Current))
	}
	for w, ref := range refs {
		if ref.Cand == Null {
			continue
		}
		if err := s.hold(w, ref); err != nil {
			return err
		}
	}
	return nil
}

// hold switches worker w to its strategy ref after checking that ref does
// not overlap another worker's points.
func (s *State) hold(w int, ref vdps.StrategyRef) error {
	if !s.Available(w, ref) {
		return fmt.Errorf("game: route %v for worker %d conflicts with another worker", s.StrategySeq(ref), w)
	}
	s.Switch(w, ref)
	return nil
}

// Verify implements assign.Certified: VerifyNE with these options.
func (o Options) Verify(s *State) error { return VerifyNE(s, o) }

// VerifyNE checks that the joint strategy loaded into s (see
// LoadAssignment) is a pure Nash equilibrium of the FTA game under the IAU
// utility of opt — its Fairness weights, and the priority-aware IAU when
// UsePriorities is set: no worker has an available strategy (or Null) with
// utility more than opt.EpsilonUtility above its current one. A zero
// EpsilonUtility certifies at the numerical default of 1e-9, above FGT's own
// 1e-12, and NoEpsilon demands a strict equilibrium where any improving
// deviation refutes. It returns nil when the state is an equilibrium and a
// descriptive error otherwise; weights outside the monotone IAU domain fail
// with ErrNonMonotoneIAU. It does not modify s.
//
// This is the certificate form of Algorithm 2's termination condition;
// callers can use it to audit assignments produced elsewhere.
func VerifyNE(s *State, opt Options) error {
	prm := opt.Fairness
	if prm == (fairness.Params{}) {
		prm = fairness.DefaultParams()
	}
	tol := opt.EpsilonUtility
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
		if s.Current[w].Cand != Null {
			if v := u.at(w, 0); v > cur+tol {
				return fmt.Errorf("game: worker %d improves IAU %g -> %g by going idle", w, cur, v)
			}
		}
		if top := s.TopAvailable(w); top.Cand != s.Current[w].Cand {
			if v := u.at(w, top.Payoff); v > cur+tol {
				return fmt.Errorf("game: worker %d improves IAU %g -> %g via strategy %v (not a Nash equilibrium)",
					w, cur, v, s.StrategySeq(top))
			}
		}
	}
	return nil
}
