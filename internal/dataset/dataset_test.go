package dataset

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"fairtask/internal/geo"
	"fairtask/internal/model"
)

func TestGenerateSYNDefaultsScaledDown(t *testing.T) {
	cfg := SYNConfig{
		Seed: 1, Centers: 5, Tasks: 500, Workers: 50, DeliveryPoints: 100,
	}
	p, err := GenerateSYN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instances) != 5 {
		t.Fatalf("centers = %d", len(p.Instances))
	}
	if p.TaskCount() != 500 {
		t.Errorf("tasks = %d, want 500", p.TaskCount())
	}
	if p.WorkerCount() != 50 {
		t.Errorf("workers = %d, want 50", p.WorkerCount())
	}
	var points int
	for i := range p.Instances {
		points += len(p.Instances[i].Points)
	}
	if points != 100 {
		t.Errorf("points = %d, want 100", points)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("generated problem invalid: %v", err)
	}
}

func TestGenerateSYNServiceRadius(t *testing.T) {
	cfg := SYNConfig{Seed: 2, Centers: 3, Tasks: 60, Workers: 12, DeliveryPoints: 30}
	p, err := GenerateSYN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const radius = 7.5 // default
	for i := range p.Instances {
		in := &p.Instances[i]
		for _, dp := range in.Points {
			if d := (geo.Euclidean{}).Distance(in.Center, dp.Loc); d > radius+1e-9 {
				t.Errorf("point %d is %g km from its center, beyond %g", dp.ID, d, radius)
			}
		}
		for _, w := range in.Workers {
			if d := (geo.Euclidean{}).Distance(in.Center, w.Loc); d > radius+1e-9 {
				t.Errorf("worker %d is %g km from its center", w.ID, d)
			}
		}
	}
}

func TestGenerateSYNDeterministic(t *testing.T) {
	cfg := SYNConfig{Seed: 7, Centers: 2, Tasks: 40, Workers: 8, DeliveryPoints: 20}
	a, err := GenerateSYN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSYN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Instances {
		if a.Instances[i].Center != b.Instances[i].Center {
			t.Fatal("same seed, different centers")
		}
		for j := range a.Instances[i].Points {
			if a.Instances[i].Points[j].Loc != b.Instances[i].Points[j].Loc {
				t.Fatal("same seed, different points")
			}
		}
	}
}

func TestGenerateSYNExpiry(t *testing.T) {
	cfg := SYNConfig{
		Seed: 3, Centers: 2, Tasks: 50, Workers: 4, DeliveryPoints: 10,
		Expiry: 1.5, ExpiryJitter: 0.5,
	}
	p, err := GenerateSYN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Instances {
		for _, dp := range p.Instances[i].Points {
			for _, task := range dp.Tasks {
				if task.Expiry < 1.0-1e-9 || task.Expiry > 2.0+1e-9 {
					t.Errorf("task expiry %g outside [1, 2]", task.Expiry)
				}
			}
		}
	}
	// Bad jitter rejected.
	if _, err := GenerateSYN(SYNConfig{Expiry: 1, ExpiryJitter: 1}); err == nil {
		t.Error("jitter >= expiry accepted")
	}
}

func TestGenerateSYNUnlimitedMaxDP(t *testing.T) {
	cfg := SYNConfig{Seed: 1, Centers: 1, Tasks: 10, Workers: 3, DeliveryPoints: 5, MaxDP: -1}
	p, err := GenerateSYN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range p.Instances[0].Workers {
		if w.MaxDP != 0 {
			t.Errorf("worker maxDP = %d, want 0 (unlimited)", w.MaxDP)
		}
	}
}

func TestGenerateGM(t *testing.T) {
	cfg := GMConfig{Seed: 5, Tasks: 120, Workers: 10, DeliveryPoints: 20}
	in, err := GenerateGM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("GM instance invalid: %v", err)
	}
	if in.TaskCount() != 120 {
		t.Errorf("tasks = %d, want 120", in.TaskCount())
	}
	if len(in.Points) == 0 || len(in.Points) > 20 {
		t.Errorf("points = %d, want 1..20", len(in.Points))
	}
	if len(in.Workers) != 10 {
		t.Errorf("workers = %d", len(in.Workers))
	}
	// The center is the centroid of task locations; with tasks spread over
	// blobs inside [0, 4]^2 (plus Gaussian tails) it must lie near that box.
	if in.Center.X < -2 || in.Center.X > 6 || in.Center.Y < -2 || in.Center.Y > 6 {
		t.Errorf("center %v far outside the region", in.Center)
	}
	// Every point holds at least one task (empty clusters are dropped).
	for _, dp := range in.Points {
		if len(dp.Tasks) == 0 {
			t.Errorf("point %d has no tasks", dp.ID)
		}
		if math.IsInf(dp.EarliestExpiry(), 1) {
			t.Errorf("point %d has no expiry", dp.ID)
		}
	}
}

func TestGenerateGMMoreClustersThanTasks(t *testing.T) {
	in, err := GenerateGM(GMConfig{Seed: 1, Tasks: 5, Workers: 2, DeliveryPoints: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Points) > 5 {
		t.Errorf("points = %d, want <= task count", len(in.Points))
	}
}

func TestGenerateGMBadExpiry(t *testing.T) {
	if _, err := GenerateGM(GMConfig{MinExpiry: 3, MaxExpiry: 1}); err == nil {
		t.Error("inverted expiry range accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	p, err := GenerateSYN(SYNConfig{Seed: 11, Centers: 3, Tasks: 30, Workers: 6, DeliveryPoints: 12})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Instances) != len(p.Instances) {
		t.Fatalf("instances = %d, want %d", len(q.Instances), len(p.Instances))
	}
	if q.TaskCount() != p.TaskCount() || q.WorkerCount() != p.WorkerCount() {
		t.Error("task/worker counts differ after round trip")
	}
	for i := range p.Instances {
		a, b := &p.Instances[i], &q.Instances[i]
		if a.Center != b.Center || a.CenterID != b.CenterID {
			t.Fatalf("instance %d center mismatch", i)
		}
		if a.Travel.Speed() != b.Travel.Speed() {
			t.Fatal("speed not preserved")
		}
		if len(a.Points) != len(b.Points) {
			t.Fatalf("instance %d point count mismatch", i)
		}
		for j := range a.Points {
			if a.Points[j].Loc != b.Points[j].Loc || a.Points[j].ID != b.Points[j].ID {
				t.Fatalf("point mismatch at %d/%d", i, j)
			}
			if len(a.Points[j].Tasks) != len(b.Points[j].Tasks) {
				t.Fatalf("task count mismatch at %d/%d", i, j)
			}
			for k := range a.Points[j].Tasks {
				ta, tb := a.Points[j].Tasks[k], b.Points[j].Tasks[k]
				if ta != tb {
					t.Fatalf("task mismatch: %+v vs %+v", ta, tb)
				}
			}
		}
		for j := range a.Workers {
			if a.Workers[j] != b.Workers[j] {
				t.Fatalf("worker mismatch at %d/%d", i, j)
			}
		}
	}
}

// kindGroupedCSV is a two-center problem whose centers both have a point 1,
// with its records grouped by kind instead of in WriteCSV's order.
const kindGroupedCSV = `meta,5,,,,euclidean,
center,0,,0,0,,
center,1,,10,10,,
point,0,1,1,0,,
point,1,1,11,10,,
task,0,100,1,,5,2
task,1,200,1,,5,3
worker,0,1,0,1,2,0
worker,1,1,10,11,2,0
`

// TestCSVPointIDsScopedToCenter checks that a task's point ID names a point
// of its own center: the kind-grouped records decode to the same problem as
// the same records in WriteCSV's order.
func TestCSVPointIDsScopedToCenter(t *testing.T) {
	const writeOrder = `meta,5,,,,euclidean,
center,0,,0,0,,
point,0,1,1,0,,
task,0,100,1,,5,2
worker,0,1,0,1,2,0
center,1,,10,10,,
point,1,1,11,10,,
task,1,200,1,,5,3
worker,1,1,10,11,2,0
`
	grouped, err := ReadCSV(strings.NewReader(kindGroupedCSV))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReadCSV(strings.NewReader(writeOrder))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grouped, want) {
		t.Errorf("kind-grouped CSV decoded to\n%+v\nwant\n%+v", grouped, want)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, grouped); err != nil {
		t.Fatal(err)
	}
	if buf.String() != writeOrder {
		t.Errorf("WriteCSV of the kind-grouped problem:\n%s\nwant\n%s", buf.String(), writeOrder)
	}
}

func TestCSVRejectsGarbage(t *testing.T) {
	cases := []string{
		"bogus,0,0,0,0,0,0\n",
		"center,notanint,,1,2,,\n",
		"point,0,0,1,2,,\n",                         // unknown center
		"meta,x,,,,euclidean,\n",                    // bad speed
		"meta,5,,,,warp,\n",                         // unknown metric
		"center,0,,0,0,,\ntask,0,1,99,,1,1\n",       // unknown point
		"center,0,,0,0,,\ncenter,0,,1,1,,\n",        // duplicate center
		"center,0,,0,0,,\nworker,0,0,0,0,notint,\n", // bad maxDP
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("accepted garbage: %q", c)
		}
	}
}

func TestCSVManhattanMetric(t *testing.T) {
	p, err := GenerateSYN(SYNConfig{Seed: 1, Centers: 1, Tasks: 5, Workers: 2, DeliveryPoints: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, p); err != nil {
		t.Fatal(err)
	}
	s := strings.Replace(buf.String(), "euclidean", "manhattan", 1)
	q, err := ReadCSV(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	if q.Instances[0].Travel.Metric().Name() != "manhattan" {
		t.Error("metric not preserved")
	}
}

func TestWriteAssignmentCSV(t *testing.T) {
	p, err := GenerateSYN(SYNConfig{Seed: 21, Centers: 2, Tasks: 40, Workers: 6, DeliveryPoints: 12})
	if err != nil {
		t.Fatal(err)
	}
	assignments := make([]*model.Assignment, 2)
	for i := range p.Instances {
		a := model.NewAssignment(len(p.Instances[i].Workers))
		// Give worker 0 a singleton route on the first reachable point.
		for pt := range p.Instances[i].Points {
			r := model.Route{pt}
			if p.Instances[i].RouteFeasible(0, r) {
				a.Routes[0] = r
				break
			}
		}
		assignments[i] = a
	}
	var buf bytes.Buffer
	if err := WriteAssignmentCSV(&buf, p, assignments); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "center,worker,stop,point,arrival,reward,payoff") {
		t.Errorf("missing header:\n%.100s", out)
	}
	lines := strings.Count(strings.TrimSpace(out), "\n")
	if lines < 1 {
		t.Error("no route rows written")
	}
}

func TestWriteAssignmentCSVErrors(t *testing.T) {
	p, err := GenerateSYN(SYNConfig{Seed: 1, Centers: 1, Tasks: 10, Workers: 2, DeliveryPoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteAssignmentCSV(&buf, p, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	bad := []*model.Assignment{model.NewAssignment(1)} // wrong worker count
	if err := WriteAssignmentCSV(&buf, p, bad); err == nil {
		t.Error("invalid assignment accepted")
	}
	// Nil per-center assignments are skipped, not an error.
	if err := WriteAssignmentCSV(&buf, p, []*model.Assignment{nil}); err != nil {
		t.Errorf("nil assignment rejected: %v", err)
	}
}

func TestCSVPersistsWorkerSpeed(t *testing.T) {
	p, err := GenerateSYN(SYNConfig{Seed: 1, Centers: 1, Tasks: 6, Workers: 2, DeliveryPoints: 3})
	if err != nil {
		t.Fatal(err)
	}
	p.Instances[0].Workers[1].Speed = 7.5
	var buf bytes.Buffer
	if err := WriteCSV(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Instances[0].Workers[1].Speed; got != 7.5 {
		t.Errorf("speed after round trip = %g, want 7.5", got)
	}
	if got := q.Instances[0].Workers[0].Speed; got != 0 {
		t.Errorf("default speed = %g, want 0", got)
	}
}

func TestGenerateSYNSpeedChoices(t *testing.T) {
	p, err := GenerateSYN(SYNConfig{
		Seed: 9, Centers: 2, Tasks: 20, Workers: 30, DeliveryPoints: 10,
		SpeedChoices: []float64{4, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]int{}
	for i := range p.Instances {
		for _, w := range p.Instances[i].Workers {
			seen[w.Speed]++
		}
	}
	if seen[4] == 0 || seen[8] == 0 {
		t.Errorf("speed choices not both used: %v", seen)
	}
	if len(seen) != 2 {
		t.Errorf("unexpected speeds: %v", seen)
	}
}
