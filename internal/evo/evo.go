// Package evo implements the Improved Evolutionary Game-Theoretic (IEGT)
// task assignment of paper §VI (Algorithm 3).
//
// The worker population of a distribution center repeatedly plays the
// assignment game. Each round, the replicator-dynamics signal
//
//	sigma_dot_km(t) = sigma_km(t) * (U_km(t) - Ubar_k(t))     (Equation 11)
//
// is evaluated per worker: a worker whose payoff falls below the population's
// average (sigma_dot < 0) is under selection pressure and switches — if
// possible — to a randomly chosen available strategy with a strictly higher
// payoff ("evolve or be eliminated"). The process stops at an improved
// evolutionary equilibrium: either all payoffs are (numerically) equal
// (sigma_dot = 0) or no worker changed strategy in a round.
package evo

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"fairtask/internal/fairness"
	"fairtask/internal/game"
	"fairtask/internal/obs"
	"fairtask/internal/vdps"
)

// Options configure an IEGT run.
type Options struct {
	// MaxIterations caps evolution rounds. Zero means the default of 500.
	MaxIterations int
	// Seed drives the random initialization and random strategy selection.
	Seed int64
	// Tolerance is the payoff-equality tolerance for declaring
	// sigma_dot = 0. Zero means the numerical default of 1e-9; any negative
	// value (use the NoTolerance constant) requires exactly equal payoffs,
	// which the zero value cannot express.
	Tolerance float64
	// Trace enables per-iteration statistics collection (Figure 12).
	Trace bool
	// MutationRate is the probability that a below-average worker explores
	// a uniformly random available strategy instead of a strictly better
	// one — the classic mutation operator of evolutionary games. Zero (the
	// paper's Algorithm 3) disables exploration. With mutation enabled, a
	// round with mutations never counts as converged.
	MutationRate float64
}

// NoTolerance selects exact payoff equality in Options.Tolerance: the
// sigma_dot = 0 stopping criterion then only fires when all population
// payoffs are bit-equal. The zero value keeps the numerical default
// tolerance, so "exactly zero" needs this sentinel (any negative value
// works; the constant names the intent).
const NoTolerance = -1

func (o Options) withDefaults() Options {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 500
	}
	if o.Tolerance < 0 {
		o.Tolerance = 0 // NoTolerance: exact payoff equality
	} else if o.Tolerance == 0 {
		o.Tolerance = 1e-9
	}
	return o
}

// Name returns "IEGT": with Assign, it makes Options an assign.Assigner.
func (Options) Name() string { return "IEGT" }

// Assign runs IEGT on s with these options.
func (o Options) Assign(ctx context.Context, s *game.State) (*game.Result, error) {
	return IEGT(ctx, s, o)
}

// IEGT runs the Improved Evolutionary Game-Theoretic approach (Algorithm 3)
// on the worker population of s and returns the resulting assignment. The
// utility of a worker in the evolutionary game is its raw payoff (paper
// §VI-B), not the IAU.
//
// s must be fresh and unplayed (from game.NewState, game.NewStateOnDemand
// or game.NewStateWithStrategies); the run uses it up. IEGT never reorders
// a strategy list, so lists shared through game.NewStateWithStrategies keep
// their order. Its draws and its population read every worker's list from
// the first round, so its state.build span asks for the lists
// (game.State.Lists) and covers building them on a state that has none,
// with the initial profile; the caller that built s accounts for the
// strategy spaces it holds.
//
// ctx is observed at every evolution round boundary: when it is done the
// run stops and ctx.Err() is returned.
func IEGT(ctx context.Context, s *game.State, opt Options) (*game.Result, error) {
	opt = opt.withDefaults()
	sp := obs.SpanFromContext(ctx)
	bsp := sp.Child("state.build")
	if len(s.Current) == 0 {
		bsp.End()
		return nil, game.ErrNoWorkers
	}
	s.Lists()
	rng := rand.New(rand.NewSource(opt.Seed))
	s.RandomInit(rng)

	var tracker *game.SummaryTracker
	if opt.Trace {
		tracker = game.NewSummaryTracker(s)
	}
	bsp.End()

	res := &game.Result{}
	// Population membership (workers with a non-empty strategy space) is
	// fixed for the whole run, so the per-round average and equal-payoff
	// checks fold into allocation-free scans over s.Payoffs that visit the
	// same workers in the same order as the populationPayoffs slice the
	// reference builds — the accumulated values are bit-identical.
	var cand []vdps.StrategyRef // scratch for random strategy selection
	// Dirty-set gating for the selection sweep, mirroring the FGT loop:
	// version counts switches, cleanAt[w] = version+1 records that w's last
	// evaluation at that version found no strictly better available strategy
	// and consumed no randomness — with the payoff multiset (hence ubar) and
	// the owner table unchanged since, re-scanning would provably come up
	// empty again, so the O(strategies) scan is skipped. The gate never
	// engages with mutation enabled: a below-average worker then draws from
	// rng on every evaluation, and skipping would shift the random stream.
	version := 0
	cleanAt := make([]int, len(s.Current))
	for iter := 1; iter <= opt.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rsp := sp.Child("round")
		rsp.SetAttrInt("i", iter)
		if err := fpIEGTRound.Hit(ctx); err != nil {
			rsp.End()
			return nil, fmt.Errorf("evo: iegt round %d: %w", iter, err)
		}
		ubar := populationAverage(s)
		changes := 0
		for w := range s.Current {
			// sigma_km > 0 for every present strategy, so the sign of
			// sigma_dot is the sign of (U - Ubar): below-average workers
			// are under negative selection pressure.
			if s.Payoffs[w] >= ubar {
				continue
			}
			if cleanAt[w] == version+1 {
				continue
			}
			var r vdps.StrategyRef
			ok := false
			if opt.MutationRate > 0 && rng.Float64() < opt.MutationRate {
				r, ok = randomAvailableStrategy(s, w, rng, &cand)
			}
			if !ok {
				r, ok = randomBetterStrategy(s, w, rng, &cand)
			}
			if ok {
				s.Switch(w, r)
				if tracker != nil {
					tracker.Update(w)
				}
				changes++
				version++
			} else if opt.MutationRate == 0 {
				cleanAt[w] = version + 1
			}
		}
		res.Iterations = iter
		res.Switches += changes
		if tracker != nil {
			diff, avg := tracker.DiffAvg()
			res.Trace = append(res.Trace, game.IterationStat{
				Iteration: iter,
				Changes:   changes,
				// IEGT's raw-payoff dynamics have no potential of their own;
				// Phi at the default IAU weights is recorded so traces stay
				// comparable with FGT's.
				Potential:  fairness.Potential(fairness.DefaultParams(), s.Payoffs),
				PayoffDiff: diff,
				AvgPayoff:  avg,
			})
		}
		rsp.End()
		// The sigma_dot = 0 criterion applies to the evolving population:
		// workers with empty strategy spaces are not part of the game (their
		// payoff is pinned at zero), so they must not block the equal-payoff
		// test — the population average excludes them for the same reason.
		if changes == 0 || populationEqual(s, opt.Tolerance) {
			res.Converged = true
			break
		}
	}
	res.Assignment = s.Assignment()
	res.Summary = s.Summary()
	res.Potential = fairness.Potential(fairness.DefaultParams(), s.Payoffs)
	return res, nil
}

// populationEqual reports whether the evolving population's payoffs all lie
// within tol of each other, the allocation-free form of
// payoffsEqual(populationPayoffs(s), tol).
func populationEqual(s *game.State, tol float64) bool {
	min, max := math.Inf(1), math.Inf(-1)
	n := 0
	for w, list := range s.Lists() {
		if len(list) == 0 {
			continue
		}
		v := s.Payoffs[w]
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		n++
	}
	if n < 2 {
		return true
	}
	return max-min <= tol
}

// populationPayoffs returns the payoffs of the evolving population: workers
// with at least one strategy. Workers with empty strategy spaces cannot play
// and are excluded from both the average and the equal-payoff convergence
// test.
func populationPayoffs(s *game.State) []float64 {
	out := make([]float64, 0, len(s.Current))
	for w, list := range s.Lists() {
		if len(list) == 0 {
			continue
		}
		out = append(out, s.Payoffs[w])
	}
	return out
}

// populationAverage is Ubar_k (Equation 14). Every worker holds exactly one
// strategy, so each population share sigma_km is 1/|G_k| and the
// share-weighted average reduces to the mean payoff over the evolving
// population. The scan visits workers in the same order populationPayoffs
// appends them, so the accumulated sum — and the hot loop's switch decisions
// that hinge on it — is bit-identical to averaging the materialized slice,
// without the per-round allocation.
func populationAverage(s *game.State) float64 {
	var sum float64
	n := 0
	for w, list := range s.Lists() {
		if len(list) == 0 {
			continue
		}
		sum += s.Payoffs[w]
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// randomBetterStrategy picks uniformly at random among worker w's available
// strategies with payoff strictly above the current one (Algorithm 3,
// lines 23-25). The candidates are gathered into *buf, reused across calls,
// and the draw takes the k-th best of them (vdps.Generator.NthBest), so the
// same rng state selects the same strategy as the reference's draw over a
// payoff-sorted list.
func randomBetterStrategy(s *game.State, w int, rng *rand.Rand, buf *[]vdps.StrategyRef) (vdps.StrategyRef, bool) {
	cur := s.Current[w]
	p := 0.0
	if cur.Cand != game.Null {
		p = s.Payoffs[w]
	}
	better := (*buf)[:0]
	for _, r := range s.List(w) {
		if r.Cand == cur.Cand {
			continue
		}
		if r.Payoff > p && s.Available(w, r) {
			better = append(better, r)
		}
	}
	*buf = better
	if len(better) == 0 {
		return game.Idle, false
	}
	return s.Generator().NthBest(better, rng.Intn(len(better))), true
}

// randomAvailableStrategy picks uniformly among all of worker w's available
// strategies other than the current one (the mutation operator). *buf is the
// shared candidate scratch, as in randomBetterStrategy.
func randomAvailableStrategy(s *game.State, w int, rng *rand.Rand, buf *[]vdps.StrategyRef) (vdps.StrategyRef, bool) {
	cur := s.Current[w].Cand
	avail := (*buf)[:0]
	for _, r := range s.List(w) {
		if r.Cand != cur && s.Available(w, r) {
			avail = append(avail, r)
		}
	}
	*buf = avail
	if len(avail) == 0 {
		return game.Idle, false
	}
	return s.Generator().NthBest(avail, rng.Intn(len(avail))), true
}

// payoffsEqual reports whether all payoffs lie within tol of each other.
func payoffsEqual(p []float64, tol float64) bool {
	if len(p) < 2 {
		return true
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range p {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return max-min <= tol
}

// Replicator computes the replicator-dynamics value sigma_dot for a
// hypothetical worker utility u in a population with share sigma and average
// utility ubar (Equation 11). Exposed for tests and for the convergence
// experiment, which plots the selection pressure over iterations.
func Replicator(sigma, u, ubar float64) float64 {
	return sigma * (u - ubar)
}

// PopulationShares returns sigma_km per strategy identity: since each worker
// holds a distinct VDPS, shares are 1/n for each of the n playing workers
// (Equations 12-13). Exposed for the convergence experiment.
func PopulationShares(s *game.State) []float64 {
	var n int
	for _, r := range s.Current {
		if r.Cand != game.Null {
			n++
		}
	}
	out := make([]float64, len(s.Current))
	if n == 0 {
		return out
	}
	for w, r := range s.Current {
		if r.Cand != game.Null {
			out[w] = 1 / float64(n)
		}
	}
	return out
}

// Verify implements assign.Certified: VerifyEquilibrium with these options.
func (o Options) Verify(s *game.State) error { return VerifyEquilibrium(s, o) }

// VerifyEquilibrium checks the improved evolutionary stable state of
// Algorithm 3 for a loaded assignment: either all population payoffs lie
// within opt's Tolerance of each other (the sigma_dot = 0 stopping
// criterion IEGT stops at, 1e-9 by default), or no worker with payoff below
// the population average has an available strategy with strictly higher
// payoff. s holds the assignment, loaded with game.State.LoadAssignment,
// and is not modified. It returns nil for a stable assignment and a
// descriptive error otherwise.
func VerifyEquilibrium(s *game.State, opt Options) error {
	if populationEqual(s, opt.withDefaults().Tolerance) {
		return nil
	}
	ubar := populationAverage(s)
	for w := range s.Current {
		cur := s.Payoffs[w]
		if cur >= ubar {
			continue
		}
		if top := s.TopAvailable(w); top.Cand != s.Current[w].Cand && top.Payoff > cur {
			return fmt.Errorf(
				"evo: worker %d (payoff %g, below average %g) can still improve via %v",
				w, cur, ubar, s.StrategySeq(top))
		}
	}
	return nil
}
