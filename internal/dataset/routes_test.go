package dataset

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"fairtask/internal/assign"
	"fairtask/internal/game"
	"fairtask/internal/model"
	"fairtask/internal/vdps"
)

// solveAssignments produces real multi-stop assignments for round-tripping.
func solveAssignments(t *testing.T, p *model.Problem) []*model.Assignment {
	t.Helper()
	out := make([]*model.Assignment, len(p.Instances))
	for i := range p.Instances {
		g, err := vdps.Generate(&p.Instances[i], vdps.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := assign.GTA{}.Assign(context.Background(), game.NewState(g))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res.Assignment
	}
	return out
}

func TestAssignmentCSVRoundTrip(t *testing.T) {
	p, err := GenerateSYN(SYNConfig{Seed: 7, Centers: 2, Tasks: 40, Workers: 6, DeliveryPoints: 12})
	if err != nil {
		t.Fatal(err)
	}
	want := solveAssignments(t, p)
	var buf bytes.Buffer
	if err := WriteAssignmentCSV(&buf, p, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAssignmentCSV(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d assignments, want %d", len(got), len(want))
	}
	var stops int
	for i := range want {
		if len(got[i].Routes) != len(want[i].Routes) {
			t.Fatalf("center %d: %d routes, want %d", i, len(got[i].Routes), len(want[i].Routes))
		}
		for w := range want[i].Routes {
			a, b := want[i].Routes[w], got[i].Routes[w]
			if len(a) != len(b) {
				t.Fatalf("center %d worker %d: route %v, want %v", i, w, b, a)
			}
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("center %d worker %d: route %v, want %v", i, w, b, a)
				}
			}
			stops += len(a)
		}
		if err := got[i].Validate(&p.Instances[i]); err != nil {
			t.Errorf("center %d: round-tripped assignment invalid: %v", i, err)
		}
	}
	if stops == 0 {
		t.Error("round-trip exercised no non-empty routes")
	}
}

func TestReadAssignmentCSVErrors(t *testing.T) {
	p, err := GenerateSYN(SYNConfig{Seed: 1, Centers: 1, Tasks: 10, Workers: 2, DeliveryPoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	centerID := p.Instances[0].CenterID
	workerID := p.Instances[0].Workers[0].ID
	pointID := p.Instances[0].Points[0].ID
	header := "center,worker,stop,point,arrival,reward,payoff\n"
	row := func(c, w, s, pt int) string {
		return strings.Join([]string{
			strconv.Itoa(c), strconv.Itoa(w), strconv.Itoa(s), strconv.Itoa(pt), "0", "1", "1",
		}, ",") + "\n"
	}
	cases := []struct {
		name, body string
	}{
		{"bad header", "centre,worker,stop,point,arrival,reward,payoff\n"},
		{"unknown center", header + row(centerID+99, workerID, 0, pointID)},
		{"unknown worker", header + row(centerID, 999, 0, pointID)},
		{"unknown point", header + row(centerID, workerID, 0, 999)},
		{"negative stop", header + row(centerID, workerID, -1, pointID)},
		{"duplicate stop", header + row(centerID, workerID, 0, pointID) +
			row(centerID, workerID, 0, p.Instances[0].Points[1].ID)},
		{"gap in stops", header + row(centerID, workerID, 1, pointID)},
		{"short row", header + "1,2,3\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadAssignmentCSV(strings.NewReader(tc.body), p); err == nil {
				t.Errorf("accepted %q", tc.body)
			}
		})
	}

	// An empty body (header only) yields empty, valid assignments.
	got, err := ReadAssignmentCSV(strings.NewReader(header), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] == nil || len(got[0].Routes) != 2 {
		t.Errorf("header-only read = %+v", got)
	}
}
