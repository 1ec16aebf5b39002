package platform

import (
	"errors"
	"fmt"
	"math"

	"fairtask/internal/assign"
	"fairtask/internal/model"
	"fairtask/internal/payoff"
	"fairtask/internal/vdps"
)

// SimConfig configures an epoch-based platform simulation.
type SimConfig struct {
	// Epochs is the number of assignment rounds. Default 12.
	Epochs int
	// EpochLength is the simulated duration of one round in hours.
	// Default 1.
	EpochLength float64
	// Solver picks the assignment algorithm. Required.
	Solver assign.Assigner
	// VDPS configures candidate generation per round.
	VDPS vdps.Options
	// TaskSource, when non-nil, is invoked at the start of each epoch and
	// may append new delivery-point tasks to the problem. Task expiries are
	// absolute simulation hours.
	TaskSource func(epoch int, now float64, p *model.Problem)
}

// EpochStats records one simulated round.
type EpochStats struct {
	// Epoch is the 0-based round index; Now is the simulation clock at the
	// start of the round in hours.
	Epoch int
	Now   float64
	// OnlineWorkers is how many workers were available this round.
	OnlineWorkers int
	// AssignedWorkers is how many of them received a route.
	AssignedWorkers int
	// CompletedTasks is the number of tasks on assigned routes.
	CompletedTasks int
	// ExpiredTasks is the number of tasks dropped this round because their
	// deadline passed unassigned.
	ExpiredTasks int
	// Difference and Average are the round's payoff metrics over online
	// workers.
	Difference float64
	Average    float64
}

// SimReport aggregates a full simulation.
type SimReport struct {
	// Epochs holds per-round statistics.
	Epochs []EpochStats
	// CompletedTasks and ExpiredTasks total the corresponding per-round
	// numbers.
	CompletedTasks int
	ExpiredTasks   int
	// Earnings and TravelTime accumulate per worker (indexed by the order
	// workers appear across the problem's instances).
	Earnings   []float64
	TravelTime []float64
	// CumulativeDifference is P_dif over the workers' cumulative earning
	// rates (earnings / travel time, 0 for idle workers) — the platform's
	// long-run fairness.
	CumulativeDifference float64
	// CumulativeAverage is the mean cumulative earning rate.
	CumulativeAverage float64
}

// ErrNoSolver is returned when SimConfig.Solver is nil.
var ErrNoSolver = errors.New("platform: simulation requires a solver")

// simWorker tracks one worker's lifecycle across epochs.
type simWorker struct {
	worker   model.Worker
	busyTill float64 // simulation hour at which the worker is online again
	earnings float64
	travel   float64
}

// simCenter maps one center to the global worker table.
type simCenter struct {
	centerID int
	workers  []int // indices into the global worker table
}

// Simulate runs an epoch-based simulation of the SC platform over the
// problem: each epoch it snapshots the live tasks and online workers per
// center, solves the one-shot assignment, marks assigned workers busy for
// their route duration, removes completed tasks, and expires stale ones.
func Simulate(p *model.Problem, cfg SimConfig) (*SimReport, error) {
	if cfg.Solver == nil {
		return nil, ErrNoSolver
	}
	if len(p.Instances) == 0 {
		return nil, ErrNoInstances
	}
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = 12
	}
	dt := cfg.EpochLength
	if dt <= 0 {
		dt = 1
	}

	// Build the mutable simulation state from a deep copy of the problem.
	var workers []*simWorker
	centers := make([]*simCenter, len(p.Instances))
	live := &model.Problem{Instances: make([]model.Instance, len(p.Instances))}
	for i := range p.Instances {
		src := &p.Instances[i]
		live.Instances[i] = *src
		live.Instances[i].Points = clonePoints(src.Points)
		sc := &simCenter{centerID: src.CenterID}
		for _, w := range src.Workers {
			sc.workers = append(sc.workers, len(workers))
			workers = append(workers, &simWorker{worker: w})
		}
		centers[i] = sc
	}

	report := &SimReport{}
	for epoch := 0; epoch < epochs; epoch++ {
		now := float64(epoch) * dt
		if cfg.TaskSource != nil {
			cfg.TaskSource(epoch, now, live)
		}

		st := EpochStats{Epoch: epoch, Now: now}

		// Snapshot: shift expiries to be relative to now, drop expired
		// tasks, include only online workers.
		snap := &model.Problem{Instances: make([]model.Instance, 0, len(live.Instances))}
		type workerRef struct{ inst, local, global int }
		var refs []workerRef
		for i := range live.Instances {
			inst := &live.Instances[i]
			expired := pruneExpired(inst, now)
			report.ExpiredTasks += expired
			st.ExpiredTasks += expired

			si := model.Instance{
				CenterID: inst.CenterID,
				Center:   inst.Center,
				Travel:   inst.Travel,
				Points:   shiftExpiries(inst.Points, now),
			}
			for _, gw := range centers[i].workers {
				w := workers[gw]
				if w.busyTill > now {
					continue
				}
				refs = append(refs, workerRef{inst: len(snap.Instances), local: len(si.Workers), global: gw})
				si.Workers = append(si.Workers, w.worker)
			}
			st.OnlineWorkers += len(si.Workers)
			snap.Instances = append(snap.Instances, si)
		}

		res, err := Assign(snap, cfg.Solver, Options{VDPS: cfg.VDPS})
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", epoch, err)
		}
		st.Difference = res.Difference
		st.Average = res.Average

		// Apply routes: mark workers busy, account earnings, remove the
		// completed delivery points' tasks from the live pool.
		for _, ref := range refs {
			route := res.PerCenter[ref.inst].Assignment.Routes[ref.local]
			if len(route) == 0 {
				continue
			}
			si := &snap.Instances[ref.inst]
			travel := si.RouteTime(ref.local, route)
			reward := si.RouteReward(route)
			w := workers[ref.global]
			w.busyTill = now + travel
			w.earnings += reward
			w.travel += travel
			// The worker finishes the route at its last delivery point and
			// rejoins the pool from there.
			w.worker.Loc = si.Points[route[len(route)-1]].Loc
			st.AssignedWorkers++

			liveInst := findInstance(live, si.CenterID)
			for _, pt := range route {
				id := si.Points[pt].ID
				st.CompletedTasks += removeTasks(liveInst, id)
			}
		}
		report.CompletedTasks += st.CompletedTasks
		report.Epochs = append(report.Epochs, st)
	}

	report.Earnings = make([]float64, len(workers))
	report.TravelTime = make([]float64, len(workers))
	rates := make([]float64, len(workers))
	for i, w := range workers {
		report.Earnings[i] = w.earnings
		report.TravelTime[i] = w.travel
		if w.travel > 0 {
			rates[i] = w.earnings / w.travel
		}
	}
	report.CumulativeDifference = payoff.Difference(rates)
	report.CumulativeAverage = payoff.Average(rates)
	return report, nil
}

// clonePoints deep-copies delivery points including task slices.
func clonePoints(src []model.DeliveryPoint) []model.DeliveryPoint {
	out := make([]model.DeliveryPoint, len(src))
	for i, dp := range src {
		out[i] = dp
		out[i].Tasks = append([]model.Task(nil), dp.Tasks...)
	}
	return out
}

// pruneExpired drops tasks whose absolute expiry is in the past and returns
// how many were dropped.
func pruneExpired(in *model.Instance, now float64) int {
	var dropped int
	for i := range in.Points {
		kept := in.Points[i].Tasks[:0]
		for _, t := range in.Points[i].Tasks {
			if t.Expiry > now {
				kept = append(kept, t)
			} else {
				dropped++
			}
		}
		in.Points[i].Tasks = kept
	}
	return dropped
}

// shiftExpiries returns a copy of the points with expiries made relative to
// now (the solver's time origin). Points with no live tasks are dropped so
// the solver does not waste candidates on reward-free locations; task Point
// indices are re-based onto the filtered slice.
func shiftExpiries(src []model.DeliveryPoint, now float64) []model.DeliveryPoint {
	var out []model.DeliveryPoint
	for _, dp := range src {
		if len(dp.Tasks) == 0 {
			continue
		}
		cp := dp
		cp.Tasks = append([]model.Task(nil), dp.Tasks...)
		for j := range cp.Tasks {
			cp.Tasks[j].Point = len(out)
			cp.Tasks[j].Expiry -= now
			if cp.Tasks[j].Expiry <= 0 {
				// pruneExpired runs first, so this is defensive only.
				cp.Tasks[j].Expiry = math.SmallestNonzeroFloat64
			}
		}
		out = append(out, cp)
	}
	return out
}

// findInstance locates the live instance by center ID.
func findInstance(p *model.Problem, centerID int) *model.Instance {
	for i := range p.Instances {
		if p.Instances[i].CenterID == centerID {
			return &p.Instances[i]
		}
	}
	return nil
}

// removeTasks clears all tasks of the delivery point with the given ID and
// returns how many were removed.
func removeTasks(in *model.Instance, pointID int) int {
	if in == nil {
		return 0
	}
	for i := range in.Points {
		if in.Points[i].ID == pointID {
			n := len(in.Points[i].Tasks)
			in.Points[i].Tasks = nil
			return n
		}
	}
	return 0
}
