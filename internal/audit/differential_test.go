// Differential correctness tests: every solver's output on small random
// instances must pass the independent audit, and the fairness-blind score of
// the heuristics must never beat the exhaustive Exact search. The file lives
// in package audit_test so it can exercise the public fairtask wiring
// (fairtask imports internal/audit, so the in-package tests cannot).
package audit_test

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fairtask"
	"fairtask/internal/assign"
	"fairtask/internal/audit"
	"fairtask/internal/dataset"
	"fairtask/internal/evo"
	"fairtask/internal/game"
	"fairtask/internal/geo"
	"fairtask/internal/model"
	"fairtask/internal/platform"
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
				solver, err := fairtask.NewAssigner(fairtask.Options{Algorithm: alg})
				if err != nil {
					t.Fatal(err)
				}
				rep := fairtask.Audit(in, res.Assignment, &res.Summary, fairtask.AuditOptions{
					Solver:    solver,
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
					if err := game.VerifyNE(s, game.Options{Fairness: fairtask.DefaultFairness(), EpsilonUtility: 1e-9}); err != nil {
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

// gridInstance scatters nPoints two-task delivery points and nWorkers
// workers over [-3,3]² (a copy of the evo test helper).
func gridInstance(nPoints, nWorkers, maxDP int, expiry float64, seed int64) *model.Instance {
	in := &model.Instance{
		Center: geo.Pt(0, 0),
		Travel: travel.MustModel(geo.Euclidean{}, 1),
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nPoints; i++ {
		in.Points = append(in.Points, model.DeliveryPoint{
			ID:  i,
			Loc: geo.Pt(rng.Float64()*6-3, rng.Float64()*6-3),
			Tasks: []model.Task{
				{ID: 2 * i, Point: i, Expiry: expiry, Reward: 1},
				{ID: 2*i + 1, Point: i, Expiry: expiry, Reward: 1},
			},
		})
	}
	for w := 0; w < nWorkers; w++ {
		in.Workers = append(in.Workers, model.Worker{
			ID:    w,
			Loc:   geo.Pt(rng.Float64()*6-3, rng.Float64()*6-3),
			MaxDP: maxDP,
		})
	}
	return in
}

// latticeOf is the tie-heavy lattice of the evo tests: the integer points
// of [-r,r]² around a center at the origin, under the Manhattan metric at
// speed 1, with rewards 1-3, and the given number of workers and MaxDP.
func latticeOf(r, workers, maxDP int) *model.Instance {
	in := &model.Instance{
		Center: geo.Pt(0, 0),
		Travel: travel.MustModel(geo.Manhattan{}, 1),
	}
	for x := -r; x <= r; x++ {
		for y := -r; y <= r; y++ {
			if x == 0 && y == 0 {
				continue
			}
			id := len(in.Points)
			in.Points = append(in.Points, model.DeliveryPoint{
				ID:  id,
				Loc: geo.Pt(float64(x), float64(y)),
				Tasks: []model.Task{{
					ID: id, Point: id, Expiry: 100, Reward: float64(1 + id%3),
				}},
			})
		}
	}
	for w := 0; w < workers; w++ {
		in.Workers = append(in.Workers, model.Worker{
			ID: w, Loc: geo.Pt(float64(w%3-1), float64(w/3-1)), MaxDP: maxDP,
		})
	}
	return in
}

// spy is a solver that keeps the state it played.
type spy struct {
	assign.Assigner
	played *game.State
}

// Assign plays s with the wrapped solver and keeps s.
func (sp *spy) Assign(ctx context.Context, s *game.State) (*game.Result, error) {
	sp.played = s
	return sp.Assigner.Assign(ctx, s)
}

// sameEntries reports whether two strategy lists hold the same entries,
// payoff bits included, in any order.
func sameEntries(a, b []vdps.StrategyRef) bool {
	byRef := func(x, y vdps.StrategyRef) int {
		return cmp.Or(cmp.Compare(x.Cand, y.Cand), cmp.Compare(x.Entry, y.Entry))
	}
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, byRef)
	slices.SortFunc(b, byRef)
	return slices.EqualFunc(a, b, func(x, y vdps.StrategyRef) bool {
		return x.Cand == y.Cand && x.Entry == y.Entry && math.Float64bits(x.Payoff) == math.Float64bits(y.Payoff)
	})
}

// TestAuditOfPlayedStateMatchesFresh keeps the audit independent of the
// solver whose strategy lists it reads. platform.SolveInstance audits each
// result against the state its solver played; auditing the result again
// over lists regenerated from the instance (State nil) must give the same
// report. And after a served solve and its audit, each list the solver
// played must hold exactly its worker's entries of
// Generator.StrategySpaces, payoff bits included: a solver may reorder a
// list (MPTA and LEXIFAIR sort theirs), but a list it changed would be
// certified against entries the instance does not have. LEXIFAIR searches
// joint strategies, so it plays the small instances only: the tight grid
// and the lattice's inner ring.
func TestAuditOfPlayedStateMatchesFresh(t *testing.T) {
	type instance struct {
		in   *model.Instance
		vopt vdps.Options
	}
	small := map[string]instance{
		"tight": {gridInstance(8, 6, 2, 6, 2), vdps.Options{}},
		"ring":  {latticeOf(1, 3, 2), vdps.Options{}},
	}
	large := map[string]instance{"lattice": {latticeOf(2, 8, 3), vdps.Options{}}}
	for seed := int64(1); seed <= 3; seed++ {
		gm, err := dataset.GenerateGM(dataset.GMConfig{Seed: seed, Tasks: 200, Workers: 20, DeliveryPoints: 30})
		if err != nil {
			t.Fatal(err)
		}
		large[fmt.Sprintf("gm seed %d", seed)] = instance{gm, vdps.Options{Epsilon: 2}}
	}
	solvers := []assign.Assigner{
		assign.GTA{}, assign.MPTA{TopK: 4, NodeBudget: 50_000}, game.Options{Seed: 1}, evo.Options{Seed: 1}, assign.MMTA{},
	}
	ctx := context.Background()
	check := func(name string, c instance, solver assign.Assigner) {
		t.Helper()
		label := name + " " + solver.Name()
		opt := platform.Options{VDPS: c.vopt, Audit: &audit.Options{}}
		res, rep, err := platform.SolveInstance(ctx, c.in, solver, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fresh := audit.Run(c.in, res.Assignment, &res.Summary, audit.Options{
			VDPS: c.vopt, Solver: solver, Converged: res.Converged,
		})
		if !reflect.DeepEqual(rep, fresh) {
			t.Errorf("%s: audit of the played state %+v, of fresh lists %+v", label, rep, fresh)
		}
		sp := &spy{Assigner: solver}
		if _, _, err := platform.SolveInstance(ctx, c.in, sp, opt); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := sp.played.Generator().StrategySpaces(1)
		for w, list := range sp.played.Strategies {
			if !sameEntries(list, want[w]) {
				t.Errorf("%s: worker %d's played list of %d entries differs from its %d strategies", label, w, len(list), len(want[w]))
			}
		}
	}
	joint := append(slices.Clip(solvers), assign.Lexifair{})
	for name, c := range small {
		for _, solver := range joint {
			check(name, c, solver)
		}
	}
	for name, c := range large {
		for _, solver := range solvers {
			check(name, c, solver)
		}
	}
}
