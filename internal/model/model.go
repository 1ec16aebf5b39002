// Package model defines the FTA problem domain: spatial tasks, delivery
// points, distribution centers, workers, problem instances and assignments.
//
// Terminology follows the paper (Definitions 1-8): a distribution center dc
// holds a set of delivery points; each delivery point dp carries the set of
// tasks to be delivered to its location; a worker w must first travel to the
// center to pick up packages and then visit its assigned delivery points in
// sequence, completing every point's tasks before their expiration times.
package model

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"fairtask/internal/geo"
	"fairtask/internal/travel"
)

// Task is a spatial task (Definition 3): a delivery from the distribution
// center to a delivery point, with an expiration deadline and a reward.
type Task struct {
	// ID identifies the task within its instance.
	ID int
	// Point is the index (into Instance.Points) of the delivery point this
	// task is delivered to.
	Point int
	// Expiry is the absolute deadline (hours from the assignment instant) by
	// which a worker must arrive at the delivery point. It must be finite and
	// positive.
	Expiry float64
	// Reward is the payment for completing the task. The paper's experiments
	// use unit rewards. It must be finite and non-negative.
	Reward float64
}

// Validate checks the task's own fields: a finite, positive expiry and a
// finite, non-negative reward. The delivery point it names is the
// instance's to check.
func (t *Task) Validate() error {
	if !(t.Expiry > 0) || math.IsInf(t.Expiry, 1) {
		return fmt.Errorf("%w: task %d expiry %g", ErrBadTaskExpiry, t.ID, t.Expiry)
	}
	if !(t.Reward >= 0) || math.IsInf(t.Reward, 1) {
		return fmt.Errorf("%w: task %d reward %g", ErrBadTaskReward, t.ID, t.Reward)
	}
	return nil
}

// DeliveryPoint is a location with a set of tasks delivered to it
// (Definition 2).
type DeliveryPoint struct {
	// ID identifies the point within its instance.
	ID int
	// Loc is the point's location.
	Loc geo.Point
	// Tasks are the deliveries destined for this point.
	Tasks []Task
}

// EarliestExpiry returns the minimum expiration time among the point's tasks
// (the paper's dp.e). It returns +Inf for a point with no tasks, which makes
// such points trivially reachable but worthless.
func (dp *DeliveryPoint) EarliestExpiry() float64 {
	e := math.Inf(1)
	for _, t := range dp.Tasks {
		if t.Expiry < e {
			e = t.Expiry
		}
	}
	return e
}

// TotalReward returns the sum of the rewards of the point's tasks.
func (dp *DeliveryPoint) TotalReward() float64 {
	var r float64
	for _, t := range dp.Tasks {
		r += t.Reward
	}
	return r
}

// Worker is a crowd worker (Definition 4).
type Worker struct {
	// ID identifies the worker within its instance.
	ID int
	// Loc is the worker's current location.
	Loc geo.Point
	// MaxDP is the maximum number of delivery points the worker is willing
	// to visit (w.maxDP). Zero means unlimited.
	MaxDP int
	// Priority optionally weights the worker in the priority-aware fairness
	// extension (see fairness.PriorityIAU). Zero is treated as 1. Negative
	// values are rejected by Validate.
	Priority float64
	// Contribution optionally scales the worker's effective reward in the
	// contribution-weighted payoff extension. Zero is treated as 1. Negative
	// values are rejected by Validate.
	Contribution float64
	// Speed optionally overrides the instance travel model's speed for this
	// worker (heterogeneous fleets: bikes vs. vans). Zero means the
	// instance default. Negative values are rejected by Validate.
	Speed float64
}

// EffectivePriority returns the worker's priority, defaulting to 1 for
// non-positive (or NaN) values, matching fairness.NormalizedPayoff's
// treatment so both layers agree on the effective priority.
func (w *Worker) EffectivePriority() float64 {
	if w.Priority <= 0 || math.IsNaN(w.Priority) {
		return 1
	}
	return w.Priority
}

// EffectiveContribution returns the worker's contribution factor,
// defaulting to 1 for non-positive (or NaN) values, like EffectivePriority.
func (w *Worker) EffectiveContribution() float64 {
	if w.Contribution <= 0 || math.IsNaN(w.Contribution) {
		return 1
	}
	return w.Contribution
}

// Validate checks the worker's own fields: a finite location, and a
// non-negative maxDP, speed, priority and contribution. A NaN speed is
// rejected; a NaN priority or contribution counts as 1.
func (w *Worker) Validate() error {
	if !w.Loc.IsFinite() {
		return fmt.Errorf("%w: worker %d", ErrBadLocation, w.ID)
	}
	if w.MaxDP < 0 {
		return fmt.Errorf("%w: worker %d maxDP %d", ErrNegativeMaxDP, w.ID, w.MaxDP)
	}
	if w.Speed < 0 || math.IsNaN(w.Speed) {
		return fmt.Errorf("%w: worker %d speed %g", ErrBadWorkerSpeed, w.ID, w.Speed)
	}
	if w.Priority < 0 || w.Contribution < 0 {
		return fmt.Errorf("%w: worker %d priority %g contribution %g",
			ErrBadWorkerWeight, w.ID, w.Priority, w.Contribution)
	}
	return nil
}

// Instance is a single-distribution-center FTA problem instance: the center,
// its delivery points (with tasks), its workers, and the travel model.
// Task assignment across distribution centers is independent (paper §VII-A),
// so multi-center problems are simply collections of instances (see Problem).
type Instance struct {
	// CenterID identifies the distribution center.
	CenterID int
	// Center is the distribution center's location (dc.l).
	Center geo.Point
	// Points are the delivery points dc.DP.
	Points []DeliveryPoint
	// Workers are the online workers available to the center.
	Workers []Worker
	// Travel converts distances to travel times.
	Travel travel.Model
}

// Validation errors.
var (
	ErrNoTravelModel   = errors.New("model: instance has no valid travel model")
	ErrBadLocation     = errors.New("model: non-finite location")
	ErrBadTaskPoint    = errors.New("model: task references wrong delivery point")
	ErrBadTaskExpiry   = errors.New("model: task expiry must be finite and positive")
	ErrBadTaskReward   = errors.New("model: task reward must be finite and non-negative")
	ErrNegativeMaxDP   = errors.New("model: worker maxDP must be non-negative")
	ErrDuplicateID     = errors.New("model: duplicate ID")
	ErrPointOutOfSeq   = errors.New("model: route references delivery point out of range")
	ErrDuplicatePoint  = errors.New("model: route visits a delivery point twice")
	ErrBadWorkerSpeed  = errors.New("model: worker speed must be non-negative")
	ErrBadWorkerWeight = errors.New("model: worker priority and contribution must be non-negative")
)

// Validate checks structural invariants of the instance: a valid travel
// model, finite center and point locations, every task under the point its
// Point index names, Task.Validate, ValidateTotalReward, Worker.Validate,
// and unique point, task and worker IDs.
func (in *Instance) Validate() error {
	if !in.Travel.Valid() {
		return ErrNoTravelModel
	}
	if !in.Center.IsFinite() {
		return fmt.Errorf("%w: center %v", ErrBadLocation, in.Center)
	}
	for i := range in.Points {
		dp := &in.Points[i]
		if !dp.Loc.IsFinite() {
			return fmt.Errorf("%w: delivery point %d", ErrBadLocation, dp.ID)
		}
		for j := range dp.Tasks {
			t := &dp.Tasks[j]
			if t.Point != i {
				return fmt.Errorf("%w: task %d at point index %d has Point=%d",
					ErrBadTaskPoint, t.ID, i, t.Point)
			}
			if err := t.Validate(); err != nil {
				return err
			}
		}
	}
	if err := in.ValidateTotalReward(); err != nil {
		return err
	}
	for i := range in.Workers {
		if err := in.Workers[i].Validate(); err != nil {
			return err
		}
	}

	// IDs are unique per kind: sort one scratch slice of each kind's IDs
	// and compare neighbours.
	ids := make([]int, 0, max(len(in.Points), in.TaskCount(), len(in.Workers)))
	for i := range in.Points {
		ids = append(ids, in.Points[i].ID)
	}
	if id, ok := repeatedID(ids); ok {
		return fmt.Errorf("%w: delivery point %d", ErrDuplicateID, id)
	}
	ids = ids[:0]
	for i := range in.Points {
		for _, t := range in.Points[i].Tasks {
			ids = append(ids, t.ID)
		}
	}
	if id, ok := repeatedID(ids); ok {
		return fmt.Errorf("%w: task %d", ErrDuplicateID, id)
	}
	ids = ids[:0]
	for i := range in.Workers {
		ids = append(ids, in.Workers[i].ID)
	}
	if id, ok := repeatedID(ids); ok {
		return fmt.Errorf("%w: worker %d", ErrDuplicateID, id)
	}
	return nil
}

// ValidateTotalReward checks the reward rule that spans tasks: the rewards,
// added up by TotalReward, stay finite. Every reward must already pass
// Task.Validate. Instance.Validate and the stream's delta grammar both
// apply it, so they add rewards in the same order and agree at the
// overflow edge.
func (in *Instance) ValidateTotalReward() error {
	if math.IsInf(in.TotalReward(), 1) {
		return fmt.Errorf("%w: rewards sum past %g", ErrBadTaskReward, math.MaxFloat64)
	}
	return nil
}

// repeatedID sorts ids in place and reports a value that occurs more than
// once.
func repeatedID(ids []int) (int, bool) {
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return ids[i], true
		}
	}
	return 0, false
}

// Clone returns a deep copy of the instance: points (with their task
// slices) and workers are copied, so mutating the clone never aliases the
// original. The travel model is a value and is copied with the struct.
// Long-lived consumers that mutate instances over time — the streaming
// equilibrium engine — clone at the ownership boundary so callers keep an
// immutable view.
func (in *Instance) Clone() *Instance {
	out := *in
	out.Points = make([]DeliveryPoint, len(in.Points))
	for i := range in.Points {
		out.Points[i] = in.Points[i]
		out.Points[i].Tasks = append([]Task(nil), in.Points[i].Tasks...)
	}
	out.Workers = append([]Worker(nil), in.Workers...)
	return &out
}

// TaskCount returns the total number of tasks across all delivery points.
func (in *Instance) TaskCount() int {
	var n int
	for i := range in.Points {
		n += len(in.Points[i].Tasks)
	}
	return n
}

// TotalReward returns the sum of all task rewards in the instance.
func (in *Instance) TotalReward() float64 {
	var r float64
	for i := range in.Points {
		r += in.Points[i].TotalReward()
	}
	return r
}

// SpeedFactor returns the multiplier applied to instance-level travel times
// for worker index w: 1 for workers using the default speed, otherwise
// defaultSpeed / workerSpeed (a slower worker takes proportionally longer
// over every leg).
func (in *Instance) SpeedFactor(w int) float64 {
	ws := in.Workers[w].Speed
	if ws <= 0 || ws == in.Travel.Speed() {
		return 1
	}
	return in.Travel.Speed() / ws
}

// ApproachTime returns the travel time from worker index w's location to the
// distribution center (the paper's c(w.l, dc.l)), at the worker's speed.
func (in *Instance) ApproachTime(w int) float64 {
	return in.Travel.Time(in.Workers[w].Loc, in.Center) * in.SpeedFactor(w)
}

// Route is an ordered visiting sequence of delivery points (a delivery point
// sequence, Definition 5), given as indices into Instance.Points. An empty
// route is the null strategy.
type Route []int

// Clone returns an independent copy of the route.
func (r Route) Clone() Route {
	if r == nil {
		return nil
	}
	out := make(Route, len(r))
	copy(out, r)
	return out
}

// checkRoute validates index range and uniqueness of a route's points.
func (in *Instance) checkRoute(r Route) error {
	seen := make(map[int]bool, len(r))
	for _, p := range r {
		if p < 0 || p >= len(in.Points) {
			return fmt.Errorf("%w: %d", ErrPointOutOfSeq, p)
		}
		if seen[p] {
			return fmt.Errorf("%w: %d", ErrDuplicatePoint, p)
		}
		seen[p] = true
	}
	return nil
}

// RouteArrivals returns the arrival time at each point of the route when
// worker index w departs at time zero, travels to the center, and then visits
// the route's points in order (Definition 5). The returned slice has one
// entry per route point. It panics on an invalid route; callers that accept
// external input should call checkRoute via Assignment.Validate first.
func (in *Instance) RouteArrivals(w int, r Route) []float64 {
	if len(r) == 0 {
		return nil
	}
	arr := make([]float64, len(r))
	f := in.SpeedFactor(w)
	t := in.ApproachTime(w) + f*in.Travel.Time(in.Center, in.Points[r[0]].Loc)
	arr[0] = t
	for i := 1; i < len(r); i++ {
		t += f * in.Travel.Time(in.Points[r[i-1]].Loc, in.Points[r[i]].Loc)
		arr[i] = t
	}
	return arr
}

// CenterRouteTime returns the total travel time of the route measured from
// the distribution center (excluding the worker's approach leg). It is the
// paper's t'_{dc,R}(dp_last).
func (in *Instance) CenterRouteTime(r Route) float64 {
	if len(r) == 0 {
		return 0
	}
	t := in.Travel.Time(in.Center, in.Points[r[0]].Loc)
	for i := 1; i < len(r); i++ {
		t += in.Travel.Time(in.Points[r[i-1]].Loc, in.Points[r[i]].Loc)
	}
	return t
}

// RouteTime returns worker w's total travel time for the route: approach leg
// plus the center-origin route time, both at the worker's speed. It is
// t(dp_|VDPS|) in Definition 7.
func (in *Instance) RouteTime(w int, r Route) float64 {
	if len(r) == 0 {
		return 0
	}
	return in.ApproachTime(w) + in.SpeedFactor(w)*in.CenterRouteTime(r)
}

// RouteReward returns the total reward of all tasks on the route's points.
func (in *Instance) RouteReward(r Route) float64 {
	var sum float64
	for _, p := range r {
		sum += in.Points[p].TotalReward()
	}
	return sum
}

// RouteFeasible reports whether worker w can complete every task on the
// route before expiry: arrival at each point must not exceed the point's
// earliest task expiration (Definition 6).
func (in *Instance) RouteFeasible(w int, r Route) bool {
	arr := in.RouteArrivals(w, r)
	for i, p := range r {
		if arr[i] > in.Points[p].EarliestExpiry() {
			return false
		}
	}
	return true
}

// Assignment maps each worker (by index) to its assigned route
// (Definition 8). Routes[i] is worker i's route; an empty route means the
// worker received no tasks (the null strategy).
type Assignment struct {
	Routes []Route
}

// NewAssignment returns an empty assignment for n workers.
func NewAssignment(n int) *Assignment {
	return &Assignment{Routes: make([]Route, n)}
}

// Clone returns a deep copy of the assignment.
func (a *Assignment) Clone() *Assignment {
	out := NewAssignment(len(a.Routes))
	for i, r := range a.Routes {
		out.Routes[i] = r.Clone()
	}
	return out
}

// AssignedWorkers returns the number of workers with a non-empty route.
func (a *Assignment) AssignedWorkers() int {
	var n int
	for _, r := range a.Routes {
		if len(r) > 0 {
			n++
		}
	}
	return n
}

// Assignment validation errors.
var (
	ErrWorkerCountMismatch = errors.New("model: assignment has wrong number of routes")
	ErrOverlap             = errors.New("model: assignment routes overlap")
	ErrInfeasibleRoute     = errors.New("model: assigned route misses a deadline")
	ErrMaxDPExceeded       = errors.New("model: route exceeds worker maxDP")
)

// Validate checks that the assignment is a spatial task assignment per
// Definition 8: one route per worker, pairwise-disjoint delivery points,
// every route feasible for its worker, and maxDP respected.
func (a *Assignment) Validate(in *Instance) error {
	if len(a.Routes) != len(in.Workers) {
		return fmt.Errorf("%w: %d routes for %d workers",
			ErrWorkerCountMismatch, len(a.Routes), len(in.Workers))
	}
	owner := make(map[int]int, len(in.Points))
	for w, r := range a.Routes {
		if err := in.checkRoute(r); err != nil {
			return fmt.Errorf("worker %d: %w", w, err)
		}
		if max := in.Workers[w].MaxDP; max > 0 && len(r) > max {
			return fmt.Errorf("%w: worker %d has %d points, maxDP %d",
				ErrMaxDPExceeded, w, len(r), max)
		}
		for _, p := range r {
			if prev, ok := owner[p]; ok {
				return fmt.Errorf("%w: point %d assigned to workers %d and %d",
					ErrOverlap, p, prev, w)
			}
			owner[p] = w
		}
		if len(r) > 0 && !in.RouteFeasible(w, r) {
			return fmt.Errorf("%w: worker %d route %v", ErrInfeasibleRoute, w, r)
		}
	}
	return nil
}

// Problem is a multi-center FTA problem: a set of independent instances that
// the platform may solve in parallel (paper §VII-A).
type Problem struct {
	Instances []Instance
}

// TaskCount returns the total task count across all centers.
func (p *Problem) TaskCount() int {
	var n int
	for i := range p.Instances {
		n += p.Instances[i].TaskCount()
	}
	return n
}

// WorkerCount returns the total worker count across all centers.
func (p *Problem) WorkerCount() int {
	var n int
	for i := range p.Instances {
		n += len(p.Instances[i].Workers)
	}
	return n
}

// Validate validates every instance in the problem.
func (p *Problem) Validate() error {
	for i := range p.Instances {
		if err := p.Instances[i].Validate(); err != nil {
			return fmt.Errorf("instance %d (center %d): %w",
				i, p.Instances[i].CenterID, err)
		}
	}
	return nil
}

// InstanceStats summarizes the shape of an instance: entity counts, task
// density, deadline tightness, and worker geometry. Used by reporting tools
// to characterize workloads.
type InstanceStats struct {
	// Points, Tasks and Workers are entity counts.
	Points, Tasks, Workers int
	// TasksPerPoint is the mean task count per delivery point.
	TasksPerPoint float64
	// MeanExpiry is the mean task expiration time in hours.
	MeanExpiry float64
	// ReachablePoints counts delivery points a worker standing at the
	// center could reach before their earliest expiry.
	ReachablePoints int
	// MeanApproach is the mean worker approach time to the center in hours.
	MeanApproach float64
}

// Stats computes summary statistics for the instance.
func (in *Instance) Stats() InstanceStats {
	st := InstanceStats{
		Points:  len(in.Points),
		Workers: len(in.Workers),
	}
	var expirySum float64
	for i := range in.Points {
		dp := &in.Points[i]
		st.Tasks += len(dp.Tasks)
		for _, t := range dp.Tasks {
			expirySum += t.Expiry
		}
		if in.Travel.Time(in.Center, dp.Loc) <= dp.EarliestExpiry() {
			st.ReachablePoints++
		}
	}
	if st.Points > 0 {
		st.TasksPerPoint = float64(st.Tasks) / float64(st.Points)
	}
	if st.Tasks > 0 {
		st.MeanExpiry = expirySum / float64(st.Tasks)
	}
	var approachSum float64
	for w := range in.Workers {
		approachSum += in.ApproachTime(w)
	}
	if st.Workers > 0 {
		st.MeanApproach = approachSum / float64(st.Workers)
	}
	return st
}
