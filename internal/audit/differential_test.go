// Differential correctness tests: every solver's output on small random
// instances must pass the independent audit, and the fairness-blind score of
// the heuristics must never beat the exhaustive Exact search. The file lives
// in package audit_test so it can exercise the public fairtask wiring
// (fairtask imports internal/audit, so the in-package tests cannot).
package audit_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fairtask"
	"fairtask/internal/assign"
	"fairtask/internal/audit"
	"fairtask/internal/game"
	"fairtask/internal/geo"
	"fairtask/internal/model"
	"fairtask/internal/travel"
	"fairtask/internal/vdps"
)

// randomInstance builds a small instance with heterogeneous expiries so the
// strategy spaces stay enumerable for assign.Exact.
func randomInstance(seed int64) *model.Instance {
	rng := rand.New(rand.NewSource(seed))
	in := &model.Instance{
		Center: geo.Pt(2, 2),
		Travel: travel.MustModel(geo.Euclidean{}, 10),
	}
	for i := 0; i < 6; i++ {
		in.Points = append(in.Points, model.DeliveryPoint{
			ID:  i,
			Loc: geo.Pt(rng.Float64()*4, rng.Float64()*4),
			Tasks: []model.Task{{
				ID:     i,
				Point:  i,
				Expiry: 0.5 + rng.Float64()*1.5,
				Reward: 1 + rng.Float64(),
			}},
		})
	}
	for w := 0; w < 3; w++ {
		in.Workers = append(in.Workers, model.Worker{
			ID:    w,
			Loc:   geo.Pt(rng.Float64()*4, rng.Float64()*4),
			MaxDP: 2,
		})
	}
	return in
}

// exactScore runs the exhaustive baseline and returns the fairness-blind
// total-payoff score it optimizes, or NaN when the space is too large.
func exactScore(t *testing.T, in *model.Instance) float64 {
	t.Helper()
	g, err := vdps.Generate(in, vdps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := assign.Exact{Lambda: 1}.Assign(context.Background(), game.NewState(g))
	if err != nil {
		if err == assign.ErrSearchTooLarge {
			return math.NaN()
		}
		t.Fatal(err)
	}
	return assign.Score(res.Summary.Payoffs, 1)
}

// TestSolversPassAudit solves small random instances with every algorithm
// through the public API with auditing enabled (a violation fails the solve),
// re-audits the result explicitly, and cross-checks the heuristics against
// the exhaustive search.
func TestSolversPassAudit(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			in := randomInstance(seed)
			best := exactScore(t, in)
			for _, alg := range []fairtask.Algorithm{
				fairtask.AlgFGT, fairtask.AlgIEGT, fairtask.AlgMPTA, fairtask.AlgGTA,
			} {
				res, err := fairtask.Solve(in, fairtask.Options{
					Algorithm: alg,
					Seed:      seed + 1,
					Audit:     true,
				})
				if err != nil {
					t.Fatalf("%s: %v", alg, err)
				}
				rep := fairtask.Audit(in, res.Assignment, &res.Summary, fairtask.AuditOptions{
					Algorithm: string(alg),
					Converged: res.Converged,
				})
				if !rep.OK() {
					t.Errorf("%s: audit violations: %v", alg, rep.Violations)
				}
				if !math.IsNaN(best) {
					if got := assign.Score(res.Summary.Payoffs, 1); got > best+1e-9 {
						t.Errorf("%s: score %g beats exhaustive optimum %g", alg, got, best)
					}
				}
				if alg == fairtask.AlgFGT && res.Converged {
					g, err := vdps.Generate(in, vdps.Options{})
					if err != nil {
						t.Fatal(err)
					}
					s := game.NewState(g)
					if err := s.LoadAssignment(res.Assignment); err != nil {
						t.Fatal(err)
					}
					if err := game.VerifyNE(s, game.NEOptions{Fairness: fairtask.DefaultFairness(), Tol: 1e-9}); err != nil {
						t.Errorf("converged FGT is not a Nash equilibrium: %v", err)
					}
				}
			}
		})
	}
}

// TestAuditCatchesForeignAssignment swaps the assignments of two different
// instances: the audit must reject an assignment that was solved for a
// different geometry.
func TestAuditCatchesForeignAssignment(t *testing.T) {
	inA, inB := randomInstance(100), randomInstance(200)
	resB, err := fairtask.Solve(inB, fairtask.Options{Algorithm: fairtask.AlgMPTA})
	if err != nil {
		t.Fatal(err)
	}
	if resB.Summary.Assigned == 0 {
		t.Skip("no assigned workers to transplant")
	}
	rep := audit.Run(inA, resB.Assignment, &resB.Summary, audit.Options{})
	if rep.OK() {
		t.Error("audit accepted an assignment for a different instance")
	}
}
