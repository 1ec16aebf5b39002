// Package audit independently re-verifies task assignments against the
// paper's guarantees. Solvers promise that their outputs are spatial task
// assignments per Definition 8 (disjoint routes, deadlines met, maxDP
// respected), that routes are drawn from the workers' Valid Delivery Point
// Sets (§IV), that the reported payoff metrics match Definition 7 and
// Equation 2, and — for the game-theoretic methods — that the result is an
// equilibrium (§V–§VI). A production assignment service must never silently
// violate these invariants, so this package re-derives every one of them
// from the instance. The structure, deadline and summary checks read the
// instance alone. Membership and the certificate read the strategy space:
// the one the solver played when the caller passes its state
// (Options.State), so a served audit builds no second strategy space, or
// one regenerated from the instance otherwise. On a played state a route's
// membership is checked by its witness, the strategy the solver held, and
// only a route without a matching witness is looked up in the lists. The
// certificate is the solver's own (assign.Certified), run with the options
// that solver ran.
//
// The auditor is wired behind fairtask.Options.Audit, the HTTP service's
// audit query parameter, and the fta audit CLI subcommand; see docs/AUDIT.md.
package audit

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"fairtask/internal/assign"
	"fairtask/internal/game"
	"fairtask/internal/model"
	"fairtask/internal/payoff"
	"fairtask/internal/vdps"
)

// Check identifies one audited invariant family.
type Check string

// The audited invariants, in execution order.
const (
	// CheckStructure re-derives Assignment.Validate's structural invariants:
	// one route per worker, in-range and duplicate-free routes, pairwise
	// disjointness, and maxDP.
	CheckStructure Check = "structure"
	// CheckDeadlines re-simulates every route with RouteArrivals and checks
	// each arrival against the point's earliest task expiration
	// (Definition 6).
	CheckDeadlines Check = "deadlines"
	// CheckSummary recomputes the per-worker payoffs, P_dif, average and the
	// remaining Summary fields from scratch and compares them with the
	// reported summary within tolerance.
	CheckSummary Check = "summary"
	// CheckVDPS verifies that every non-empty route is a sequence the
	// worker's candidate generator actually admits, and that the generator's
	// Pareto frontiers satisfy their monotonicity contract.
	CheckVDPS Check = "vdps-membership"
	// CheckEquilibrium verifies the equilibrium certificate: a pure Nash
	// equilibrium under the IAU utility for FGT, the improved evolutionary
	// stable state for IEGT.
	CheckEquilibrium Check = "equilibrium"
	// CheckLexifair verifies the leximin certificate for LEXIFAIR
	// assignments: an independent re-solve of every frozen level confirms
	// that no worker's minimum payoff can be raised without lowering a
	// poorer worker's.
	CheckLexifair Check = "lexifair"
)

// Violation is one broken invariant found by the auditor.
type Violation struct {
	// Check names the invariant family.
	Check Check `json:"check"`
	// Worker is the offending worker index, or -1 when the violation is not
	// attributable to a single worker.
	Worker int `json:"worker"`
	// Detail is a human-readable description of the violation.
	Detail string `json:"detail"`
}

// String renders the violation as "check: worker N: detail", dropping the
// worker part for violations not attributable to one worker.
func (v Violation) String() string {
	if v.Worker >= 0 {
		return fmt.Sprintf("%s: worker %d: %s", v.Check, v.Worker, v.Detail)
	}
	return fmt.Sprintf("%s: %s", v.Check, v.Detail)
}

// Report is the outcome of one audit run.
type Report struct {
	// Checks lists the invariant families that were executed.
	Checks []Check `json:"checks"`
	// Skipped lists the families that could not run: checks gated behind a
	// failed structure check, the summary comparison when no summary was
	// reported, or the certificate when the solver has none or did not
	// converge.
	Skipped []Check `json:"skipped,omitempty"`
	// Violations holds every broken invariant found.
	Violations []Violation `json:"violations,omitempty"`
	// Recomputed is the payoff summary the auditor derived from scratch
	// (independent of the solver's reported summary). Invalid routes are
	// treated as empty.
	Recomputed payoff.Summary `json:"-"`
}

// OK reports whether the audit found no violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil for a clean report and an *Error wrapping the report
// otherwise.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return &Error{Report: r}
}

// Error is the error form of a failed audit, carrying the full report.
type Error struct {
	Report *Report
}

// Error implements error, listing every violation.
func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d violation(s)", len(e.Report.Violations))
	for _, v := range e.Report.Violations {
		b.WriteString("; ")
		b.WriteString(v.String())
	}
	return b.String()
}

// Options configure an audit run.
type Options struct {
	// State is the game state the solver played. The auditor loads the
	// assignment into a fresh state over its generator that shares what
	// State built (game.State.Fresh), and does not modify State. Each
	// route the solver's strategy for its worker witnesses needs no list;
	// any other route is looked up in the lists, built then if State has
	// none. Nil makes the auditor regenerate candidates from the instance
	// with the VDPS options below and build its own lists — fully
	// independent, but as expensive as the solver's own generation and
	// state build.
	State *game.State
	// VDPS configures candidate regeneration when State is nil. It must
	// match the options the assignment was solved with (in particular
	// Epsilon), or the certificate may see strategies the solver never had.
	VDPS vdps.Options
	// Solver is the solver that produced the assignment. A converged result
	// of an assign.Certified solver is checked with its Verify, with the
	// options the solver ran; any other solver, or nil, skips the
	// certificate. LEXIFAIR's certificate reports under CheckLexifair,
	// every other one under CheckEquilibrium.
	Solver assign.Assigner
	// Tolerance is the relative tolerance for the summary comparison.
	// Zero means the numerical default of 1e-6; any negative value demands
	// bit-exact summaries, which the zero value cannot express.
	Tolerance float64
	// Converged reports whether the solver reached its fixed point. The
	// certificate only applies to converged runs; an iteration-capped run
	// is allowed to be off-equilibrium.
	Converged bool
}

// Run audits the assignment against the instance. sum is the solver's
// reported summary; nil skips the summary comparison (the recomputed summary
// is still returned in the report). Run never panics on malformed
// assignments: structurally invalid routes are reported and excluded from
// the downstream checks.
func Run(in *model.Instance, a *model.Assignment, sum *payoff.Summary, opt Options) *Report {
	r := &Report{}
	if opt.Tolerance < 0 {
		opt.Tolerance = 0 // bit-exact summary comparison
	} else if opt.Tolerance == 0 {
		opt.Tolerance = 1e-6
	}
	certificate := CheckEquilibrium
	if _, ok := opt.Solver.(assign.Lexifair); ok {
		certificate = CheckLexifair
	}

	// Structure: worker count, per-route validity, disjointness, maxDP.
	r.Checks = append(r.Checks, CheckStructure)
	if len(a.Routes) != len(in.Workers) {
		r.violate(CheckStructure, -1, fmt.Sprintf("%d routes for %d workers",
			len(a.Routes), len(in.Workers)))
		// Nothing downstream is well-defined without a per-worker route map.
		r.Skipped = append(r.Skipped, CheckDeadlines, CheckSummary, CheckVDPS, certificate)
		return r
	}
	routeOK := r.checkStructure(in, a)

	// Deadlines: re-simulate arrivals for every structurally valid route.
	r.Checks = append(r.Checks, CheckDeadlines)
	r.checkDeadlines(in, a, routeOK)

	// Summary: recompute everything from scratch, then compare if reported.
	r.Recomputed = recompute(in, a, routeOK)
	if sum != nil {
		r.Checks = append(r.Checks, CheckSummary)
		r.checkSummary(sum, opt.Tolerance)
	} else {
		r.Skipped = append(r.Skipped, CheckSummary)
	}

	// VDPS: frontier contract plus route membership in the strategy spaces,
	// which then hold the loaded assignment for the certificate.
	r.Checks = append(r.Checks, CheckVDPS)
	var (
		s *game.State
		// held is the played joint strategy: each route's witness.
		held []vdps.StrategyRef
	)
	if opt.State != nil {
		s, held = opt.State.Fresh(), opt.State.Current
	} else {
		g, err := vdps.Generate(in, opt.VDPS)
		if err != nil {
			r.violate(CheckVDPS, -1, "candidate regeneration failed: "+err.Error())
			r.Skipped = append(r.Skipped, certificate)
			return r
		}
		s = game.NewState(g)
	}
	r.checkFrontiers(s.Generator())
	refs, membershipOK := r.checkMembership(s, held, a, routeOK)

	// Certificate: only meaningful for a converged run of a certified solver
	// on an assignment whose routes all live in the strategy spaces. With
	// every route a member, loading its strategies fails only on
	// overlapping routes; the load error is then the certificate's
	// violation.
	solver, certified := opt.Solver.(assign.Certified)
	if !certified || !opt.Converged || !membershipOK {
		r.Skipped = append(r.Skipped, certificate)
		return r
	}
	r.Checks = append(r.Checks, certificate)
	if err := s.LoadStrategies(refs); err != nil {
		r.violate(certificate, -1, err.Error())
	} else if err := solver.Verify(s); err != nil {
		r.violate(certificate, -1, err.Error())
	}
	return r
}

func (r *Report) violate(c Check, worker int, detail string) {
	r.Violations = append(r.Violations, Violation{Check: c, Worker: worker, Detail: detail})
}

// checkStructure validates every route's indices, uniqueness, maxDP and
// cross-worker disjointness. It returns per-worker flags; a false entry means
// the route is not even indexable and must be excluded from arrival
// simulation and payoff computation (both would panic on it).
func (r *Report) checkStructure(in *model.Instance, a *model.Assignment) []bool {
	routeOK := make([]bool, len(a.Routes))
	owner := make(map[int]int, len(in.Points))
	for w, route := range a.Routes {
		routeOK[w] = true
		seen := make(map[int]bool, len(route))
		for _, p := range route {
			if p < 0 || p >= len(in.Points) {
				r.violate(CheckStructure, w, fmt.Sprintf(
					"route references point %d, instance has %d points", p, len(in.Points)))
				routeOK[w] = false
				continue
			}
			if seen[p] {
				r.violate(CheckStructure, w, fmt.Sprintf("route visits point %d twice", p))
				routeOK[w] = false
				continue
			}
			seen[p] = true
			if prev, taken := owner[p]; taken {
				r.violate(CheckStructure, w, fmt.Sprintf(
					"point %d already assigned to worker %d (routes overlap)", p, prev))
			} else {
				owner[p] = w
			}
		}
		if max := in.Workers[w].MaxDP; max > 0 && len(route) > max {
			r.violate(CheckStructure, w, fmt.Sprintf(
				"route has %d points, worker maxDP is %d", len(route), max))
		}
	}
	return routeOK
}

// checkDeadlines re-simulates each valid route and flags every stop whose
// arrival exceeds the point's earliest task expiration.
func (r *Report) checkDeadlines(in *model.Instance, a *model.Assignment, routeOK []bool) {
	for w, route := range a.Routes {
		if !routeOK[w] || len(route) == 0 {
			continue
		}
		arr := in.RouteArrivals(w, route)
		for i, p := range route {
			if e := in.Points[p].EarliestExpiry(); arr[i] > e {
				r.violate(CheckDeadlines, w, fmt.Sprintf(
					"arrives at point %d (stop %d) at %g, after its expiry %g", p, i, arr[i], e))
			}
		}
	}
}

// recompute derives the payoff summary from scratch. Structurally invalid
// routes contribute a zero payoff, like the null strategy.
func recompute(in *model.Instance, a *model.Assignment, routeOK []bool) payoff.Summary {
	clean := model.NewAssignment(len(a.Routes))
	for w, route := range a.Routes {
		if routeOK[w] {
			clean.Routes[w] = route
		}
	}
	return payoff.Summarize(in, clean)
}

// checkSummary compares the reported summary with the recomputed one.
func (r *Report) checkSummary(sum *payoff.Summary, tol float64) {
	got := &r.Recomputed
	if len(sum.Payoffs) != len(got.Payoffs) {
		r.violate(CheckSummary, -1, fmt.Sprintf(
			"reported %d payoffs, instance has %d workers", len(sum.Payoffs), len(got.Payoffs)))
		return
	}
	for w := range got.Payoffs {
		if !closeTo(sum.Payoffs[w], got.Payoffs[w], tol) {
			r.violate(CheckSummary, w, fmt.Sprintf(
				"reported payoff %g, recomputed %g", sum.Payoffs[w], got.Payoffs[w]))
		}
	}
	scalar := func(name string, reported, recomputed float64) {
		if !closeTo(reported, recomputed, tol) {
			r.violate(CheckSummary, -1, fmt.Sprintf(
				"reported %s %g, recomputed %g", name, reported, recomputed))
		}
	}
	scalar("payoff difference", sum.Difference, got.Difference)
	scalar("average payoff", sum.Average, got.Average)
	scalar("minimum payoff", sum.Min, got.Min)
	scalar("maximum payoff", sum.Max, got.Max)
	scalar("total payoff", sum.Total, got.Total)
	if sum.Assigned != got.Assigned {
		r.violate(CheckSummary, -1, fmt.Sprintf(
			"reported %d assigned workers, recomputed %d", sum.Assigned, got.Assigned))
	}
}

// closeTo reports |a-b| <= tol*(1+|b|): absolute near zero, relative at scale.
func closeTo(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(b))
}

// checkMembership verifies that every valid non-empty route appears
// verbatim in its worker's strategy space: by its witness in held, the
// played joint strategy (nil when there is none), or else by
// game.State.Lookup. It returns each worker's strategy (game.Idle for an
// empty or failed route) and whether every audited route is a member,
// which gates the certificates: they load those strategies into s.
func (r *Report) checkMembership(s *game.State, held []vdps.StrategyRef, a *model.Assignment, routeOK []bool) ([]vdps.StrategyRef, bool) {
	refs := make([]vdps.StrategyRef, len(a.Routes))
	ok := true
	for w, route := range a.Routes {
		refs[w] = game.Idle
		if !routeOK[w] {
			ok = false
			continue
		}
		if len(route) == 0 {
			continue
		}
		ref, member := witnessed(s.Generator(), held, w, route)
		if !member {
			ref = s.Lookup(w, route)
			member = ref.Cand != game.Null
		}
		if !member {
			r.violate(CheckVDPS, w, fmt.Sprintf(
				"route %v is not a valid delivery point sequence for this worker", route))
			ok = false
			continue
		}
		refs[w] = ref
	}
	return refs, ok
}

// witnessed returns held[w], the strategy the solver played for worker w,
// and whether it witnesses route's membership: w's vdps.Rule gives its
// candidate exactly that strategy, payoff bits included, and the route is
// its sequence. The rule is what every strategy list is gathered with, so
// w's list holds the witness, and Lookup would return it. A route that is
// not its worker's witness, or a witness that does not match, is left to
// Lookup.
func witnessed(g *vdps.Generator, held []vdps.StrategyRef, w int, route model.Route) (vdps.StrategyRef, bool) {
	if w >= len(held) {
		return game.Idle, false
	}
	ref := held[w]
	if ref.Cand < 0 || int(ref.Cand) >= len(g.Candidates()) {
		return game.Idle, false
	}
	rule := g.Rule(w)
	got, ok := rule.Strategy(int(ref.Cand))
	if !ok || got.Entry != ref.Entry || math.Float64bits(got.Payoff) != math.Float64bits(ref.Payoff) ||
		!slices.Equal(g.RefSeq(got), route) {
		return game.Idle, false
	}
	return got, true
}

// checkFrontiers asserts the live candidates' Pareto-frontier contract:
// frontiers are non-empty, strictly ascending in both Time and Slack
// (dominance prunes any state that is no faster and no slacker than
// another), and every state's sequence is a permutation of the candidate's
// point set. The tombstones of a repaired generator are skipped.
func (r *Report) checkFrontiers(g *vdps.Generator) {
	for ci := range g.Candidates() {
		c := &g.Candidates()[ci]
		if !c.Live() {
			continue
		}
		if len(c.Frontier) == 0 {
			r.violate(CheckVDPS, -1, fmt.Sprintf("candidate %d has an empty frontier", ci))
			continue
		}
		for i, st := range c.Frontier {
			if !visitsOnce(st.Seq, c.Points) {
				r.violate(CheckVDPS, -1, fmt.Sprintf(
					"candidate %d state %d: sequence %v does not visit point set %v",
					ci, i, st.Seq, c.Points))
			}
			if i == 0 {
				continue
			}
			prev := c.Frontier[i-1]
			if !(st.Time > prev.Time && st.Slack > prev.Slack) {
				r.violate(CheckVDPS, -1, fmt.Sprintf(
					"candidate %d frontier not strictly ascending: state %d (time %g, slack %g) after (time %g, slack %g)",
					ci, i, st.Time, st.Slack, prev.Time, prev.Slack))
			}
		}
	}
}

// visitsOnce reports whether seq visits exactly the points of the set, each
// once, without allocating: set is a candidate's Points, strictly ascending,
// so a sequence of the same length that finds every point in it by binary
// search and repeats none is a permutation of it.
func visitsOnce(seq model.Route, set []int) bool {
	if len(seq) != len(set) {
		return false
	}
	for i, p := range seq {
		if _, found := slices.BinarySearch(set, p); !found || slices.Contains(seq[:i], p) {
			return false
		}
	}
	return true
}
