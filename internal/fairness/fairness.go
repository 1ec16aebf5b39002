// Package fairness implements the Inequity Aversion based Utility (IAU) of
// paper §V-A (Equations 5-7) and the exact potential function of Lemma 2,
// plus the priority-aware extension sketched in the paper's conclusion.
//
// IAU models inequity aversion (Fehr & Schmidt): a worker's utility is its
// payoff minus penalties for disadvantageous inequity (others earn more, MP)
// and advantageous inequity (the worker earns more than others, LP):
//
//	IAU_i = P_i - (alpha/(|W|-1))*MP_i - (beta/(|W|-1))*LP_i
//	MP_i  = sum over j with P_j > P_i of (P_j - P_i)
//	LP_i  = sum over j with P_i > P_j of (P_i - P_j)
//
// IAU_i is continuous and piecewise linear in P_i with slope
// 1 + (alpha*above - beta*below)/((|W|-1)*priority_i), where above and
// below count the workers richer and poorer than i (priority_i = 1 for the
// plain IAU). So it never falls as P_i rises when alpha >= -m and
// beta <= m, m being the least effective priority. The game solvers rely
// on that: FGT's best response takes the highest-payoff available strategy
// and compares its IAU with the incumbent's once, evaluating IAU (or
// PriorityIAUBuf) directly.
package fairness

import "math"

// Params hold the inequity-aversion weights. The paper's experiments set
// both to 0.5 so envy (MP) and guilt (LP) weigh equally.
//
// The game solvers accept alpha >= -m and beta <= m, where m is the least
// effective worker priority (1 without priorities): exactly the weights
// under which no worker's IAU falls as its own payoff rises (see the
// package doc). Outside that domain — NaN included — a worker could prefer
// a lower payoff, the top available strategy would no longer be its best
// response, and game.FGT and game.VerifyNE return game.ErrNonMonotoneIAU.
type Params struct {
	// Alpha weights MP, the disadvantageous-inequity penalty.
	Alpha float64
	// Beta weights LP, the advantageous-inequity penalty.
	Beta float64
}

// DefaultParams returns the paper's experimental setting alpha = beta = 0.5.
func DefaultParams() Params { return Params{Alpha: 0.5, Beta: 0.5} }

// MP returns the total extra payoff workers richer than i obtain
// (Equation 6).
func MP(payoffs []float64, i int) float64 {
	var sum float64
	pi := payoffs[i]
	for j, pj := range payoffs {
		if j != i && pj > pi {
			sum += pj - pi
		}
	}
	return sum
}

// LP returns the total extra payoff worker i obtains compared with poorer
// workers (Equation 7).
func LP(payoffs []float64, i int) float64 {
	var sum float64
	pi := payoffs[i]
	for j, pj := range payoffs {
		if j != i && pi > pj {
			sum += pi - pj
		}
	}
	return sum
}

// IAU returns worker i's inequity-aversion utility (Equation 5) given the
// payoffs of all workers. With fewer than two workers the inequity terms
// vanish and IAU equals the raw payoff.
func IAU(p Params, payoffs []float64, i int) float64 {
	n := len(payoffs)
	if n < 2 {
		return payoffs[i]
	}
	scale := 1 / float64(n-1)
	return payoffs[i] - p.Alpha*scale*MP(payoffs, i) - p.Beta*scale*LP(payoffs, i)
}

// All returns the IAU of every worker.
func All(p Params, payoffs []float64) []float64 {
	out := make([]float64, len(payoffs))
	for i := range payoffs {
		out[i] = IAU(p, payoffs, i)
	}
	return out
}

// Potential returns the exact potential Phi = sum of IAUs (Lemma 2). In an
// exact potential game, a unilateral strategy change alters Phi by exactly
// the deviator's utility change, which is what guarantees best-response
// dynamics converge to a pure Nash equilibrium.
//
// Note: the paper asserts Phi = sum IAU is an exact potential; because MP/LP
// couple workers, the identity holds exactly only when the inequity terms of
// non-deviators are unchanged. The game package therefore treats Phi as a
// Lyapunov-style progress measure and additionally bounds iterations.
func Potential(p Params, payoffs []float64) float64 {
	var phi float64
	for i := range payoffs {
		phi += IAU(p, payoffs, i)
	}
	return phi
}

// NormalizedPayoff returns the priority-normalized payoff the priority-aware
// IAU compares workers by: payoff / priority, with non-positive (or NaN)
// priorities treated as 1. The NaN guard keeps the zero-payoff identity
// NormalizedPayoff(0, pr) == 0 — NaN <= 0 is false, so without it a NaN
// priority would turn a zero payoff into a NaN normalized value.
func NormalizedPayoff(payoff, priority float64) float64 {
	if priority <= 0 || math.IsNaN(priority) {
		priority = 1
	}
	return payoff / priority
}

// PriorityIAU is the priority-aware fairness extension (paper §VIII): the
// inequity penalties compare priority-normalized payoffs P_j / priority_j,
// so a high-priority worker is "entitled" to proportionally higher payoff
// before being considered advantaged.
func PriorityIAU(p Params, payoffs, priorities []float64, i int) float64 {
	return PriorityIAUBuf(p, payoffs, priorities, i, nil)
}

// PriorityIAUBuf is PriorityIAU with a caller-provided scratch buffer for
// the normalized payoffs, for hot loops that would otherwise allocate one
// slice per call. norm is grown when too small; passing a buffer of
// len(payoffs) capacity makes the call allocation-free. The result is
// bit-identical to PriorityIAU.
func PriorityIAUBuf(p Params, payoffs, priorities []float64, i int, norm []float64) float64 {
	n := len(payoffs)
	if n < 2 {
		return payoffs[i]
	}
	if cap(norm) < n {
		norm = make([]float64, n)
	}
	norm = norm[:n]
	for j := range payoffs {
		norm[j] = NormalizedPayoff(payoffs[j], priorities[j])
	}
	scale := 1 / float64(n-1)
	return payoffs[i] - p.Alpha*scale*MP(norm, i) - p.Beta*scale*LP(norm, i)
}
