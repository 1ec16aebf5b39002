package model

import (
	"errors"
	"math"
	"testing"

	"fairtask/internal/geo"
	"fairtask/internal/travel"
)

// testInstance builds a small valid instance: center at origin, three
// delivery points on the x axis at 1, 2, 3 km, one worker at (-1, 0),
// speed 1 km/h, generous deadlines.
func testInstance() *Instance {
	in := &Instance{
		CenterID: 0,
		Center:   geo.Pt(0, 0),
		Travel:   travel.MustModel(geo.Euclidean{}, 1),
	}
	for i := 0; i < 3; i++ {
		dp := DeliveryPoint{ID: i, Loc: geo.Pt(float64(i+1), 0)}
		dp.Tasks = append(dp.Tasks, Task{ID: i*10 + 1, Point: i, Expiry: 100, Reward: 1})
		dp.Tasks = append(dp.Tasks, Task{ID: i*10 + 2, Point: i, Expiry: 50, Reward: 2})
		in.Points = append(in.Points, dp)
	}
	in.Workers = []Worker{{ID: 0, Loc: geo.Pt(-1, 0), MaxDP: 3}}
	return in
}

func TestInstanceValidateOK(t *testing.T) {
	if err := testInstance().Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
}

func TestValidateRejectsBadInstances(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Instance)
		want   error
	}{
		{"no travel model", func(in *Instance) { in.Travel = travel.Model{} }, ErrNoTravelModel},
		{"NaN center", func(in *Instance) { in.Center = geo.Pt(math.NaN(), 0) }, ErrBadLocation},
		{"NaN point", func(in *Instance) { in.Points[0].Loc.X = math.Inf(1) }, ErrBadLocation},
		{"wrong task point", func(in *Instance) { in.Points[1].Tasks[0].Point = 0 }, ErrBadTaskPoint},
		{"zero expiry", func(in *Instance) { in.Points[0].Tasks[0].Expiry = 0 }, ErrBadTaskExpiry},
		{"negative reward", func(in *Instance) { in.Points[0].Tasks[0].Reward = -1 }, ErrBadTaskReward},
		{"infinite reward", func(in *Instance) { in.Points[0].Tasks[0].Reward = math.Inf(1) }, ErrBadTaskReward},
		{"rewards sum past MaxFloat64", func(in *Instance) {
			in.Points[0].Tasks[0].Reward, in.Points[0].Tasks[1].Reward = 1e308, 1e308
		}, ErrBadTaskReward},
		{"negative maxDP", func(in *Instance) { in.Workers[0].MaxDP = -1 }, ErrNegativeMaxDP},
		{"dup point ID", func(in *Instance) { in.Points[1].ID = in.Points[0].ID }, ErrDuplicateID},
		{"dup task ID", func(in *Instance) { in.Points[1].Tasks[0].ID = in.Points[0].Tasks[0].ID }, ErrDuplicateID},
		{"NaN worker", func(in *Instance) { in.Workers[0].Loc.Y = math.NaN() }, ErrBadLocation},
		{"dup worker ID", func(in *Instance) {
			in.Workers = append(in.Workers, Worker{ID: 0, Loc: geo.Pt(1, 1)})
		}, ErrDuplicateID},
		{"infinite expiry", func(in *Instance) { in.Points[2].Tasks[1].Expiry = math.Inf(1) }, ErrBadTaskExpiry},
		{"NaN speed", func(in *Instance) { in.Workers[0].Speed = math.NaN() }, ErrBadWorkerSpeed},
		{"negative priority", func(in *Instance) { in.Workers[0].Priority = -1 }, ErrBadWorkerWeight},
		{"negative contribution", func(in *Instance) { in.Workers[0].Contribution = -0.5 }, ErrBadWorkerWeight},
	}
	for _, c := range cases {
		in := testInstance()
		c.mutate(in)
		if err := in.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestValidateAllocs pins that Validate finds duplicate IDs without maps:
// one scratch slice per call, however many entities the instance has.
func TestValidateAllocs(t *testing.T) {
	in := testInstance()
	for i := 0; i < 50; i++ {
		in.Workers = append(in.Workers, Worker{ID: 100 + i, Loc: geo.Pt(float64(i), 1)})
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Validate allocates %v times per call, want at most 1", n)
	}
}

func TestEarliestExpiryAndRewards(t *testing.T) {
	in := testInstance()
	dp := &in.Points[0]
	if got := dp.EarliestExpiry(); got != 50 {
		t.Errorf("EarliestExpiry = %g, want 50", got)
	}
	if got := dp.TotalReward(); got != 3 {
		t.Errorf("TotalReward = %g, want 3", got)
	}
	empty := DeliveryPoint{}
	if !math.IsInf(empty.EarliestExpiry(), 1) {
		t.Error("empty point EarliestExpiry should be +Inf")
	}
	if in.TaskCount() != 6 {
		t.Errorf("TaskCount = %d, want 6", in.TaskCount())
	}
	if in.TotalReward() != 9 {
		t.Errorf("TotalReward = %g, want 9", in.TotalReward())
	}
}

func TestWorkerDefaults(t *testing.T) {
	w := Worker{}
	if w.EffectivePriority() != 1 || w.EffectiveContribution() != 1 {
		t.Error("zero worker should default priority and contribution to 1")
	}
	w = Worker{Priority: 2.5, Contribution: 0.5}
	if w.EffectivePriority() != 2.5 || w.EffectiveContribution() != 0.5 {
		t.Error("explicit priority/contribution not honored")
	}
	w = Worker{Priority: math.NaN(), Contribution: math.NaN()}
	if w.EffectivePriority() != 1 || w.EffectiveContribution() != 1 {
		t.Errorf("NaN priority/contribution = %v/%v, want 1/1",
			w.EffectivePriority(), w.EffectiveContribution())
	}
}

func TestRouteTimes(t *testing.T) {
	in := testInstance()
	// Worker at (-1,0): approach = 1. Route 0,1,2 visits x=1,2,3.
	r := Route{0, 1, 2}
	arr := in.RouteArrivals(0, r)
	want := []float64{2, 3, 4}
	for i := range want {
		if math.Abs(arr[i]-want[i]) > 1e-9 {
			t.Errorf("arrival[%d] = %g, want %g", i, arr[i], want[i])
		}
	}
	if got := in.RouteTime(0, r); math.Abs(got-4) > 1e-9 {
		t.Errorf("RouteTime = %g, want 4", got)
	}
	if got := in.CenterRouteTime(r); math.Abs(got-3) > 1e-9 {
		t.Errorf("CenterRouteTime = %g, want 3", got)
	}
	if got := in.RouteReward(r); got != 9 {
		t.Errorf("RouteReward = %g, want 9", got)
	}
	if in.RouteTime(0, nil) != 0 || in.CenterRouteTime(nil) != 0 {
		t.Error("empty route should have zero time")
	}
	if in.RouteArrivals(0, nil) != nil {
		t.Error("empty route should have nil arrivals")
	}
}

func TestRouteFeasible(t *testing.T) {
	in := testInstance()
	if !in.RouteFeasible(0, Route{0, 1, 2}) {
		t.Error("route within deadlines reported infeasible")
	}
	// Tighten the deadline of point 2 below its arrival time of 4.
	for i := range in.Points[2].Tasks {
		in.Points[2].Tasks[i].Expiry = 3.5
	}
	if in.RouteFeasible(0, Route{0, 1, 2}) {
		t.Error("route missing a deadline reported feasible")
	}
	// Visiting point 2 directly arrives at 1+3 = 4 > 3.5: still infeasible.
	if in.RouteFeasible(0, Route{2}) {
		t.Error("direct route missing deadline reported feasible")
	}
}

func TestAssignmentValidate(t *testing.T) {
	in := testInstance()
	in.Workers = append(in.Workers, Worker{ID: 1, Loc: geo.Pt(0, 1), MaxDP: 1})

	a := NewAssignment(2)
	a.Routes[0] = Route{0, 1}
	a.Routes[1] = Route{2}
	if err := a.Validate(in); err != nil {
		t.Fatalf("valid assignment rejected: %v", err)
	}
	if a.AssignedWorkers() != 2 {
		t.Errorf("AssignedWorkers = %d, want 2", a.AssignedWorkers())
	}

	cases := []struct {
		name   string
		mutate func(*Assignment)
		want   error
	}{
		{"wrong route count", func(a *Assignment) { a.Routes = a.Routes[:1] }, ErrWorkerCountMismatch},
		{"overlap", func(a *Assignment) { a.Routes[1] = Route{0} }, ErrOverlap},
		{"out of range", func(a *Assignment) { a.Routes[1] = Route{9} }, ErrPointOutOfSeq},
		{"duplicate in route", func(a *Assignment) { a.Routes[0] = Route{0, 0} }, ErrDuplicatePoint},
		{"maxDP exceeded", func(a *Assignment) {
			a.Routes[0] = nil
			a.Routes[1] = Route{0, 1} // worker 1 has MaxDP 1
		}, ErrMaxDPExceeded},
	}
	for _, c := range cases {
		b := a.Clone()
		c.mutate(b)
		if err := b.Validate(in); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestAssignmentValidateInfeasible(t *testing.T) {
	in := testInstance()
	for i := range in.Points[2].Tasks {
		in.Points[2].Tasks[i].Expiry = 0.5 // unreachable: direct arrival is 4
	}
	a := NewAssignment(1)
	a.Routes[0] = Route{2}
	if err := a.Validate(in); !errors.Is(err, ErrInfeasibleRoute) {
		t.Errorf("err = %v, want ErrInfeasibleRoute", err)
	}
}

func TestAssignmentClone(t *testing.T) {
	a := NewAssignment(2)
	a.Routes[0] = Route{1, 2}
	b := a.Clone()
	b.Routes[0][0] = 9
	if a.Routes[0][0] != 1 {
		t.Error("Clone shares route storage with original")
	}
}

func TestRouteClone(t *testing.T) {
	var nilRoute Route
	if nilRoute.Clone() != nil {
		t.Error("nil route Clone should be nil")
	}
	r := Route{3, 4}
	c := r.Clone()
	c[0] = 7
	if r[0] != 3 {
		t.Error("Clone shares storage")
	}
}

func TestProblemAggregates(t *testing.T) {
	p := &Problem{Instances: []Instance{*testInstance(), *testInstance()}}
	p.Instances[1].CenterID = 1
	if p.TaskCount() != 12 {
		t.Errorf("TaskCount = %d, want 12", p.TaskCount())
	}
	if p.WorkerCount() != 2 {
		t.Errorf("WorkerCount = %d, want 2", p.WorkerCount())
	}
	if err := p.Validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
	p.Instances[1].Workers[0].MaxDP = -1
	if err := p.Validate(); err == nil {
		t.Error("invalid problem accepted")
	}
}

// TestPaperFigure1 reproduces the worked example from the paper's
// introduction: dc at (2,2), worker w1 at (1,2), delivery points placed so
// that the route legs are 1, 1.41, 1.12, 1.12 and the route rewards are
// 6+3+4 = 13, giving payoff 13/4.65 = 2.80.
func TestPaperFigure1(t *testing.T) {
	in := &Instance{
		Center: geo.Pt(2, 2),
		Travel: travel.MustModel(geo.Euclidean{}, 1), // unit speed, as in the paper
	}
	mkPoint := func(id int, loc geo.Point, tasks int) {
		dp := DeliveryPoint{ID: id, Loc: loc}
		for i := 0; i < tasks; i++ {
			dp.Tasks = append(dp.Tasks, Task{
				ID: id*100 + i, Point: id, Expiry: 100, Reward: 1,
			})
		}
		in.Points = append(in.Points, dp)
	}
	mkPoint(0, geo.Pt(3, 3), 6)                                 // dp1: |dc->dp1| = sqrt2 = 1.41
	mkPoint(1, geo.Pt(3.5, 4), 3)                               // dp2: |dp1->dp2| = sqrt1.25 = 1.12
	mkPoint(2, geo.Pt(4, 5), 4)                                 // dp3: |dp2->dp3| = sqrt1.25 = 1.12
	in.Workers = []Worker{{ID: 0, Loc: geo.Pt(1, 2), MaxDP: 3}} // w1

	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	r := Route{0, 1, 2}
	time := in.RouteTime(0, r)
	if math.Abs(time-4.650) > 0.005 {
		t.Errorf("route travel time = %.3f, want about 4.65", time)
	}
	reward := in.RouteReward(r)
	if reward != 13 {
		t.Errorf("route reward = %g, want 13", reward)
	}
	payoff := reward / time
	if math.Abs(payoff-2.80) > 0.01 {
		t.Errorf("payoff = %.3f, want about 2.80 (paper, Figure 1)", payoff)
	}
}

func TestInstanceStats(t *testing.T) {
	in := testInstance()
	st := in.Stats()
	if st.Points != 3 || st.Tasks != 6 || st.Workers != 1 {
		t.Errorf("counts = %+v", st)
	}
	if math.Abs(st.TasksPerPoint-2) > 1e-9 {
		t.Errorf("TasksPerPoint = %g", st.TasksPerPoint)
	}
	if math.Abs(st.MeanExpiry-75) > 1e-9 { // expiries 100 and 50 per point
		t.Errorf("MeanExpiry = %g", st.MeanExpiry)
	}
	if st.ReachablePoints != 3 {
		t.Errorf("ReachablePoints = %d", st.ReachablePoints)
	}
	if math.Abs(st.MeanApproach-1) > 1e-9 {
		t.Errorf("MeanApproach = %g", st.MeanApproach)
	}
	// Tighten a deadline to make point 2 unreachable even from the center.
	for i := range in.Points[2].Tasks {
		in.Points[2].Tasks[i].Expiry = 1 // direct arrival from center is 3
	}
	if got := in.Stats().ReachablePoints; got != 2 {
		t.Errorf("ReachablePoints after tightening = %d, want 2", got)
	}
}

func TestInstanceStatsEmpty(t *testing.T) {
	in := testInstance()
	in.Points = nil
	in.Workers = nil
	st := in.Stats()
	if st.TasksPerPoint != 0 || st.MeanExpiry != 0 || st.MeanApproach != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}
