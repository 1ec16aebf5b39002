// Package online implements the single-task assignment mode the paper
// describes in §III ("the server assigns each task to a worker at a time")
// and that the related work (Tong et al., Chen et al.) studies as online
// matching: tasks arrive one by one and must be irrevocably assigned to an
// available worker immediately.
//
// Two policies are provided: Greedy assigns the arriving task to the worker
// who can complete it fastest (maximizing the task's payoff rate), while
// FairFirst assigns it to the feasible worker with the lowest cumulative
// earnings rate — an online analogue of the paper's payoff-difference
// minimization. Comparing the two reproduces, in the online setting, the
// batch result that fairness-aware assignment narrows the earnings spread
// at a small cost in total throughput.
package online

import (
	"errors"
	"math"

	"fairtask/internal/geo"
	"fairtask/internal/model"
	"fairtask/internal/payoff"
)

// Policy selects how the matcher picks among feasible workers.
type Policy int

const (
	// Greedy picks the worker that completes the task soonest.
	Greedy Policy = iota
	// FairFirst picks the worker with the lowest cumulative earnings rate
	// (earnings per hour traveled; idle workers count as rate zero and are
	// preferred).
	FairFirst
)

// String names the policy for reports.
func (p Policy) String() string {
	switch p {
	case Greedy:
		return "greedy"
	case FairFirst:
		return "fair-first"
	default:
		return "unknown"
	}
}

// Task is one arriving delivery task: a drop-off location, an absolute
// deadline, and a reward.
type Task struct {
	ID     int
	Loc    geo.Point
	Expiry float64
	Reward float64
}

// Matcher assigns arriving tasks to workers of one distribution center.
// Create one with NewMatcher; it is not safe for concurrent use.
type Matcher struct {
	inst     *model.Instance
	policy   Policy
	busyTill []float64
	loc      []geo.Point // each worker's current location (moves with jobs)
	earnings []float64
	travel   []float64
	assigned int
	rejected int
}

// ErrNoWorkers is returned by NewMatcher for an instance without workers.
var ErrNoWorkers = errors.New("online: instance has no workers")

// NewMatcher builds a matcher over the instance's workers and travel model.
// Delivery points of the instance are not used; tasks carry their own
// locations.
func NewMatcher(in *model.Instance, policy Policy) (*Matcher, error) {
	if len(in.Workers) == 0 {
		return nil, ErrNoWorkers
	}
	m := &Matcher{
		inst:     in,
		policy:   policy,
		busyTill: make([]float64, len(in.Workers)),
		loc:      make([]geo.Point, len(in.Workers)),
		earnings: make([]float64, len(in.Workers)),
		travel:   make([]float64, len(in.Workers)),
	}
	for i := range in.Workers {
		m.loc[i] = in.Workers[i].Loc
	}
	return m, nil
}

// Offer presents a task arriving at the given time. The matcher assigns it
// per its policy to a worker who can pick the package up at the center and
// reach the task location before expiry, or rejects it (ok == false). An
// assigned worker is busy until delivery completes and ends up at the task
// location.
func (m *Matcher) Offer(now float64, task Task) (worker int, ok bool) {
	type cand struct {
		w    int
		done float64
		dist float64
	}
	best := cand{w: -1}
	bestKey := math.Inf(1)
	for w := range m.busyTill {
		start := now
		if m.busyTill[w] > start {
			start = m.busyTill[w]
		}
		toCenter := m.inst.Travel.Time(m.loc[w], m.inst.Center)
		toTask := m.inst.Travel.Time(m.inst.Center, task.Loc)
		done := start + toCenter + toTask
		if done > task.Expiry {
			continue
		}
		var key float64
		switch m.policy {
		case FairFirst:
			key = m.rate(w)
		default:
			key = done
		}
		if key < bestKey {
			bestKey = key
			best = cand{w: w, done: done, dist: toCenter + toTask}
		}
	}
	if best.w == -1 {
		m.rejected++
		return -1, false
	}
	worker = best.w
	m.busyTill[worker] = best.done
	m.loc[worker] = task.Loc
	m.earnings[worker] += task.Reward
	m.travel[worker] += best.dist
	m.assigned++
	return worker, true
}

// rate returns worker w's cumulative earnings rate (reward per hour of
// travel), 0 when the worker has not traveled yet.
func (m *Matcher) rate(w int) float64 {
	if m.travel[w] == 0 {
		return 0
	}
	return m.earnings[w] / m.travel[w]
}

// Report summarizes a matcher's run so far.
type Report struct {
	// Policy is the matching policy used.
	Policy Policy
	// Assigned and Rejected count offered tasks.
	Assigned, Rejected int
	// Earnings and TravelTime are per-worker cumulative values.
	Earnings, TravelTime []float64
	// RateDifference is P_dif over the workers' earnings rates.
	RateDifference float64
	// RateAverage is the mean earnings rate.
	RateAverage float64
}

// Report returns the current summary.
func (m *Matcher) Report() Report {
	rates := make([]float64, len(m.earnings))
	for w := range rates {
		rates[w] = m.rate(w)
	}
	return Report{
		Policy:         m.policy,
		Assigned:       m.assigned,
		Rejected:       m.rejected,
		Earnings:       append([]float64(nil), m.earnings...),
		TravelTime:     append([]float64(nil), m.travel...),
		RateDifference: payoff.Difference(rates),
		RateAverage:    payoff.Average(rates),
	}
}
