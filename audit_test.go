package fairtask_test

import (
	"bytes"
	"errors"
	"testing"

	"fairtask"
)

// TestSolveWithAudit runs every algorithm with the audit gate on: a clean
// solve must succeed unchanged.
func TestSolveWithAudit(t *testing.T) {
	in := gmInstance(t)
	for _, alg := range fairtask.Algorithms() {
		res, err := fairtask.Solve(in, fairtask.Options{Algorithm: alg, Seed: 3, Audit: true})
		if err != nil {
			t.Fatalf("%s with audit: %v", alg, err)
		}
		if res.Assignment == nil {
			t.Fatalf("%s: no assignment", alg)
		}
	}
}

func TestSolveProblemWithAudit(t *testing.T) {
	p, err := fairtask.GenerateSYN(fairtask.SYNConfig{
		Seed: 5, Centers: 2, Tasks: 40, Workers: 8, DeliveryPoints: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fairtask.SolveProblem(p, fairtask.Options{Algorithm: fairtask.AlgFGT, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCenter) != 2 {
		t.Fatalf("solved %d centers, want 2", len(res.PerCenter))
	}
}

// TestAuditRejectsTamperedResult corrupts a solved assignment and checks the
// public Audit entry point reports it, with the error carrying the report.
func TestAuditRejectsTamperedResult(t *testing.T) {
	in := gmInstance(t)
	res, err := fairtask.Solve(in, fairtask.Options{Algorithm: fairtask.AlgMPTA})
	if err != nil {
		t.Fatal(err)
	}
	// Claim a different payoff total than the routes produce.
	bad := res.Summary
	bad.Average *= 3
	rep := fairtask.Audit(in, res.Assignment, &bad, fairtask.AuditOptions{})
	if rep.OK() {
		t.Fatal("audit accepted a tampered summary")
	}
	var aerr *fairtask.AuditError
	if !errors.As(rep.Err(), &aerr) {
		t.Fatalf("Err() = %T, want *AuditError", rep.Err())
	}
	if aerr.Report != rep {
		t.Error("AuditError does not carry its report")
	}
}

// TestReadAssignmentCSVPublic round-trips an assignment export through the
// public wrappers.
func TestReadAssignmentCSVPublic(t *testing.T) {
	p, err := fairtask.GenerateSYN(fairtask.SYNConfig{
		Seed: 9, Centers: 1, Tasks: 20, Workers: 4, DeliveryPoints: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fairtask.SolveProblem(p, fairtask.Options{Algorithm: fairtask.AlgGTA})
	if err != nil {
		t.Fatal(err)
	}
	assignments := make([]*fairtask.Assignment, len(res.PerCenter))
	for i, r := range res.PerCenter {
		assignments[i] = r.Assignment
	}
	var buf bytes.Buffer
	if err := fairtask.WriteAssignmentCSV(&buf, p, assignments); err != nil {
		t.Fatal(err)
	}
	got, err := fairtask.ReadAssignmentCSV(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	rep := fairtask.Audit(&p.Instances[0], got[0], nil, fairtask.AuditOptions{})
	if !rep.OK() {
		t.Errorf("round-tripped assignment failed audit: %v", rep.Violations)
	}
	if rep.Recomputed.Assigned != res.PerCenter[0].Summary.Assigned {
		t.Errorf("recomputed %d assigned, want %d",
			rep.Recomputed.Assigned, res.PerCenter[0].Summary.Assigned)
	}
}

// latticeInstance is a tie-heavy instance: the 24 integer points of [-2,2]²
// around a center at the origin, under the Manhattan metric at speed 1, so
// many sequences of one set share their exact (time, slack).
func latticeInstance(t *testing.T) *fairtask.Instance {
	t.Helper()
	tm, err := fairtask.NewTravelModel(fairtask.Manhattan{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := &fairtask.Instance{Center: fairtask.Pt(0, 0), Travel: tm}
	for x := -2; x <= 2; x++ {
		for y := -2; y <= 2; y++ {
			if x == 0 && y == 0 {
				continue
			}
			id := len(in.Points)
			in.Points = append(in.Points, fairtask.DeliveryPoint{
				ID:  id,
				Loc: fairtask.Pt(float64(x), float64(y)),
				Tasks: []fairtask.Task{{
					ID: id, Point: id, Expiry: 100, Reward: float64(1 + id%3),
				}},
			})
		}
	}
	for w := 0; w < 8; w++ {
		in.Workers = append(in.Workers, fairtask.Worker{
			ID: w, Loc: fairtask.Pt(float64(w%3-1), float64(w/3-1)), MaxDP: 3,
		})
	}
	return in
}

// TestAuditAcceptsTiedSequences pins the standalone audit on an instance
// with exact sequence ties: the auditor regenerates the candidates and
// requires every route verbatim, so generation must pick the same tied
// sequence on every call.
func TestAuditAcceptsTiedSequences(t *testing.T) {
	in := latticeInstance(t)
	for _, alg := range []fairtask.Algorithm{fairtask.AlgFGT, fairtask.AlgIEGT, fairtask.AlgGTA} {
		for seed := int64(1); seed <= 30; seed++ {
			res, err := fairtask.Solve(in, fairtask.Options{Algorithm: alg, Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", alg, seed, err)
			}
			if rep := fairtask.Audit(in, res.Assignment, &res.Summary, fairtask.AuditOptions{}); !rep.OK() {
				t.Errorf("%s seed %d: audit rejected the solve: %v", alg, seed, rep.Violations)
			}
		}
	}
}
