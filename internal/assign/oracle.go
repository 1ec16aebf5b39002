package assign

import (
	"context"
	"sort"

	"fairtask/internal/game"
	"fairtask/internal/model"
	"fairtask/internal/vdps"
)

// This file holds the brute-force enumeration oracle the package's
// differential tests pin every solver against. The oracle walks the full
// joint strategy space (every worker picks the null strategy or one of its
// VDPSs, point-disjointness enforced through game.State) and evaluates a
// caller-chosen objective at each leaf. It is exponential by construction
// and guarded by the same search-space cap as Exact; its only job is to be
// obviously correct on tiny instances.

// OracleVector is the leximin oracle's answer: the optimal ascending-sorted
// payoff vector and an assignment realizing it.
type OracleVector struct {
	// Sorted is the ascending-sorted worker payoff vector — the exact
	// StrategyRef payoffs, so solver comparisons can demand bit identity.
	Sorted []float64
	// Assignment realizes Sorted.
	Assignment *model.Assignment
}

// OracleLexifair exhaustively computes the lexicographic-minimax optimum:
// among all point-disjoint joint strategies it maximizes the smallest
// payoff, then the second smallest, and so on (ascending-sorted vectors
// compared lexicographically). maxJoint caps the joint strategy space like
// Exact.MaxJointStrategies (0 = the same 5e6 default) and exceeding it
// returns ErrSearchTooLarge.
func OracleLexifair(ctx context.Context, g *vdps.Generator, maxJoint float64) (OracleVector, error) {
	var best OracleVector
	s, err := oracleEnumerate(ctx, g, maxJoint, func(s *game.State, payoffs []float64) {
		sorted := append([]float64(nil), payoffs...)
		sort.Float64s(sorted)
		if best.Sorted == nil || lexLess(best.Sorted, sorted) {
			best.Sorted = sorted
			best.Assignment = s.Assignment()
		}
	})
	if err != nil {
		return OracleVector{}, err
	}
	if best.Sorted == nil { // no workers: empty vector, empty assignment
		best.Sorted = []float64{}
		best.Assignment = s.Assignment()
	}
	return best, nil
}

// OracleBestScore exhaustively computes the maximum of Exact's scalarized
// objective Score(payoffs, lambda) over all point-disjoint joint
// strategies, under the same search-space cap as OracleLexifair.
func OracleBestScore(ctx context.Context, g *vdps.Generator, lambda, maxJoint float64) (float64, error) {
	var best float64
	first := true
	_, err := oracleEnumerate(ctx, g, maxJoint, func(_ *game.State, payoffs []float64) {
		if sc := Score(payoffs, lambda); first || sc > best {
			best = sc
			first = false
		}
	})
	return best, err
}

// oracleEnumerate drives the shared exhaustive recursion: visit wraps the
// objective and is called once per complete point-disjoint joint strategy
// with the live state and the per-worker payoff vector (callers must copy
// whatever they keep). It returns the state so callers can read structure
// for empty instances, and ErrSearchTooLarge or the context error on abort.
func oracleEnumerate(ctx context.Context, g *vdps.Generator, maxJoint float64, visit func(*game.State, []float64)) (*game.State, error) {
	s := game.NewState(g)
	s.SortByPayoff() // ties go to the first leaf, so enumerate in payoff order
	limit := maxJoint
	if limit <= 0 {
		limit = 5e6
	}
	space := 1.0
	for w := range s.Current {
		space *= float64(len(s.Strategies[w]) + 1)
		if space > limit {
			return nil, ErrSearchTooLarge
		}
	}

	n := len(s.Current)
	payoffs := make([]float64, n)
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
			visit(s, payoffs)
			return
		}
		// Null choice.
		payoffs[w] = 0
		rec(w + 1)
		for si := range s.Strategies[w] {
			if !s.Available(w, si) {
				continue
			}
			s.Switch(w, si)
			payoffs[w] = s.Strategies[w][si].Payoff
			rec(w + 1)
			s.Switch(w, game.Null)
			payoffs[w] = 0
		}
	}
	rec(0)
	if canceled {
		return nil, ctx.Err()
	}
	return s, nil
}
