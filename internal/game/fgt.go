package game

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"fairtask/internal/fairness"
	"fairtask/internal/model"
	"fairtask/internal/obs"
	"fairtask/internal/payoff"
)

// Options configure the FGT best-response run.
type Options struct {
	// Fairness holds the IAU weights; the zero value is replaced by the
	// paper's default alpha = beta = 0.5. Weights outside the monotone
	// domain (see ErrNonMonotoneIAU) fail the run.
	Fairness fairness.Params
	// MaxIterations caps best-response rounds (a round visits every
	// worker once). Zero means the default of 200.
	MaxIterations int
	// Seed drives the random initial assignment.
	Seed int64
	// EpsilonUtility implements the paper's future-work early termination:
	// a worker only switches when the utility gain exceeds this threshold.
	// Zero means the numerical default of 1e-12; any negative value (use
	// the NoEpsilon constant) selects the strict best response with no
	// threshold at all, which the zero value cannot express.
	EpsilonUtility float64
	// UsePriorities switches the utility to the priority-aware IAU
	// extension, reading worker priorities from the instance.
	UsePriorities bool
	// Trace enables per-iteration statistics collection (Figure 12).
	Trace bool
	// RandomOrder shuffles the best-response visiting order every round
	// instead of the default fixed round-robin. The paper plays the game
	// "in sequence"; random order is an ablation of that choice.
	RandomOrder bool
}

// NoEpsilon selects the strict best response in Options.EpsilonUtility: a
// worker switches on any utility gain, however small. The zero value keeps
// the numerical default threshold, so "exactly zero" needs this sentinel
// (any negative value works; the constant names the intent).
const NoEpsilon = -1

func (o Options) withDefaults() Options {
	if o.Fairness == (fairness.Params{}) {
		o.Fairness = fairness.DefaultParams()
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 200
	}
	if o.EpsilonUtility < 0 {
		o.EpsilonUtility = 0 // NoEpsilon: strict best response
	} else if o.EpsilonUtility == 0 {
		o.EpsilonUtility = 1e-12
	}
	return o
}

// IterationStat records one round of a game-theoretic solver run (FGT
// best-response or IEGT replicator dynamics). It is the canonical
// per-iteration convergence record: Result.Trace and the CLI's --trace-out
// JSONL export both use this type.
type IterationStat struct {
	// Iteration is the 1-based round number.
	Iteration int `json:"iteration"`
	// Changes is how many workers switched strategy this round.
	Changes int `json:"changes"`
	// Potential is Phi = sum of IAUs after the round — at the solver's
	// fairness weights for FGT, and at the default weights for IEGT (whose
	// raw-payoff dynamics have no potential of their own; Phi is recorded so
	// traces stay comparable across algorithms).
	Potential float64 `json:"potential"`
	// PayoffDiff is P_dif after the round.
	PayoffDiff float64 `json:"payoff_diff"`
	// AvgPayoff is the mean payoff after the round.
	AvgPayoff float64 `json:"avg_payoff"`
}

// Result is the outcome of a game-theoretic run (FGT or IEGT).
type Result struct {
	// Assignment is the final task assignment.
	Assignment *model.Assignment
	// Summary holds the final payoff metrics.
	Summary payoff.Summary
	// Iterations is the number of rounds executed.
	Iterations int
	// Converged reports whether a fixed point (pure Nash equilibrium for
	// FGT, evolutionary equilibrium for IEGT) was reached before the
	// iteration cap.
	Converged bool
	// Switches is the number of worker strategy switches summed over all
	// rounds: the sum of Trace[i].Changes, counted whether or not Trace is
	// set.
	Switches int
	// Trace holds per-round statistics when Options.Trace was set.
	Trace []IterationStat
	// Potential is the fairness potential Phi of the final payoffs (FGT: at
	// the run's IAU weights; IEGT: at the default weights, for
	// comparability). Telemetry observes it per solve.
	Potential float64
	// Degraded names the degradation-ladder rung that produced this result
	// ("sampled", "greedy"); empty for a full-fidelity exact solve. Set by
	// the platform layer, not by solvers.
	Degraded string
}

// ErrNoWorkers is returned when the instance has no workers.
var ErrNoWorkers = errors.New("game: instance has no workers")

// ErrNonMonotoneIAU rejects IAU weights under which some worker's utility
// can fall as its own payoff rises. FGT's best response and the Nash
// certificate take the top available strategy as the worker's best
// deviation, which holds only while every IAU is non-decreasing in the
// worker's own payoff: alpha >= -m and beta <= m, where m is the least
// effective priority (priorities <= 0 or NaN count as 1), or 1 for the
// plain IAU. The paper's alpha = beta = 0.5 is inside that domain.
var ErrNonMonotoneIAU = errors.New("game: IAU weights let utility fall as payoff rises")

// Name returns "FGT": with Assign, it makes Options an assign.Assigner.
func (Options) Name() string { return "FGT" }

// Assign runs FGT on s with these options.
func (o Options) Assign(ctx context.Context, s *State) (*Result, error) {
	return FGT(ctx, s, o)
}

// FGT runs the Fairness-aware Game-Theoretic approach (Algorithm 2) on s:
// a random singleton initialization followed by sequential asynchronous
// best-response updates of the workers' strategies under the IAU utility,
// until a pure Nash equilibrium (no worker switches) is reached. Weights
// outside the monotone IAU domain fail with ErrNonMonotoneIAU.
//
// s must be fresh and unplayed (from NewState or NewStateWithStrategies);
// the run uses it up. FGT never reorders a strategy list, so lists shared
// through NewStateWithStrategies keep their order. Its state.build span
// covers the initial profile; the caller that built s accounts for the
// strategy spaces.
//
// ctx is observed at every best-response round boundary: when it is done
// the run stops and ctx.Err() is returned, so canceled requests and expired
// job deadlines do not burn CPU to MaxIterations. The per-round check is a
// single atomic load and stays within benchmark noise.
func FGT(ctx context.Context, s *State, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	sp := obs.SpanFromContext(ctx)
	bsp := sp.Child("state.build")
	if len(s.Current) == 0 {
		bsp.End()
		return nil, ErrNoWorkers
	}
	u, err := newIAUScratch(opt.Fairness, workerPriorities(s.Instance(), opt.UsePriorities), len(s.Current))
	if err != nil {
		bsp.End()
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	s.RandomInit(rng)
	var tracker *SummaryTracker
	if opt.Trace {
		tracker = NewSummaryTracker(s)
	}
	bsp.End()

	res := &Result{}
	order := make([]int, len(s.Current))
	for i := range order {
		order[i] = i
	}
	// Dirty-set gating for the best-response sweep. version counts switches;
	// cleanAt[w] = version+1 records that w was evaluated at that version and
	// declined to switch (zero = never evaluated). A worker's best response
	// reads only its own strategy space, the owner table and the payoffs —
	// all of which change exclusively through switches — so while version
	// is unchanged a re-evaluation provably returns "no switch" again and
	// is skipped. Skipped evaluations alter no state (and consume no
	// randomness), so the round trajectory — and therefore the equilibrium,
	// iteration count and traces — stays bit-identical to the ungated
	// reference sweep; only the final quiescent sweeps get cheaper. After a
	// switch the switcher itself is clean too: it just chose its best
	// response at the new version.
	version := 0
	cleanAt := make([]int, len(s.Current))
	for iter := 1; iter <= opt.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rsp := sp.Child("round")
		rsp.SetAttrInt("i", iter)
		if err := fpFGTRound.Hit(ctx); err != nil {
			rsp.End()
			return nil, fmt.Errorf("game: fgt round %d: %w", iter, err)
		}
		if opt.RandomOrder {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		changes := 0
		for _, w := range order {
			if cleanAt[w] == version+1 {
				continue
			}
			if best := bestResponse(s, u, w, opt.EpsilonUtility); best != s.Current[w] {
				s.Switch(w, best)
				if tracker != nil {
					tracker.Update(w)
				}
				changes++
				version++
			}
			cleanAt[w] = version + 1
		}
		res.Iterations = iter
		res.Switches += changes
		if tracker != nil {
			diff, avg := tracker.DiffAvg()
			res.Trace = append(res.Trace, IterationStat{
				Iteration: iter,
				Changes:   changes,
				// The reference O(W^2) potential keeps traces bit-comparable
				// across solver generations; see docs/PERFORMANCE.md.
				Potential:  fairness.Potential(opt.Fairness, s.Payoffs),
				PayoffDiff: diff,
				AvgPayoff:  avg,
			})
		}
		rsp.End()
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

// iauScratch evaluates IAUs exactly as referenceBestResponse does —
// fairness.IAU, or fairness.PriorityIAUBuf, over a scratch copy of the
// payoffs — with the buffers reused, so an evaluation is O(W) and does not
// allocate.
type iauScratch struct {
	prm        fairness.Params
	priorities []float64 // nil selects the plain IAU
	payoffs    []float64 // copy of the state's payoffs, set by load
	norm       []float64 // PriorityIAUBuf's normalized-payoff buffer
}

// newIAUScratch returns the evaluator for n workers, or an error wrapping
// ErrNonMonotoneIAU when prm and priorities leave the monotone domain.
func newIAUScratch(prm fairness.Params, priorities []float64, n int) (*iauScratch, error) {
	m := 1.0
	if priorities != nil {
		m = math.Inf(1)
	}
	for _, pr := range priorities {
		if !(pr > 0) {
			pr = 1 // as fairness.NormalizedPayoff
		}
		m = math.Min(m, pr)
	}
	if !(prm.Alpha >= -m && prm.Beta <= m) {
		return nil, fmt.Errorf("%w: alpha %g, beta %g, least effective priority %g",
			ErrNonMonotoneIAU, prm.Alpha, prm.Beta, m)
	}
	u := &iauScratch{prm: prm, priorities: priorities, payoffs: make([]float64, n)}
	if priorities != nil {
		u.norm = make([]float64, n)
	}
	return u, nil
}

// load copies the current payoffs every later evaluation holds fixed.
func (u *iauScratch) load(payoffs []float64) { copy(u.payoffs, payoffs) }

// at returns worker w's IAU if its payoff became p, the other workers at
// their loaded payoffs.
func (u *iauScratch) at(w int, p float64) float64 {
	u.payoffs[w] = p
	if u.priorities != nil {
		return fairness.PriorityIAUBuf(u.prm, u.payoffs, u.priorities, w, u.norm)
	}
	return fairness.IAU(u.prm, u.payoffs, w)
}

// bestResponse returns worker w's utility-maximizing available strategy
// (Equation 10) under the current joint strategy of the others, preferring
// the incumbent on ties so a Nash equilibrium is a true fixed point.
//
// Inside the monotone domain (see ErrNonMonotoneIAU) a higher payoff never
// lowers the IAU, so the top available strategy is the best one, and going
// idle (payoff 0) never beats a strategy (payoff >= 0). The best response
// is therefore one comparison: switch to the top available strategy iff its
// IAU exceeds the incumbent's by more than eps. Both IAUs are computed as
// referenceBestResponse computes them; the rule makes the same choice as
// its full scan.
func bestResponse(s *State, u *iauScratch, w int, eps float64) int {
	cur := s.Current[w]
	top := s.TopAvailable(w)
	if top == cur {
		return cur
	}
	u.load(s.Payoffs)
	if u.at(w, s.Strategies[w][top].Payoff) > u.at(w, s.Payoffs[w])+eps {
		return top
	}
	return cur
}

// workerPriorities extracts the effective priorities when the priority-aware
// extension is enabled, or nil for plain IAU.
func workerPriorities(in *model.Instance, use bool) []float64 {
	if !use {
		return nil
	}
	out := make([]float64, len(in.Workers))
	for i := range in.Workers {
		out[i] = in.Workers[i].EffectivePriority()
	}
	return out
}
