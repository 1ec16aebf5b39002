// Package stream maintains a live FTA equilibrium under a stream of typed
// instance deltas — task arrivals and expiries, worker churn, reward
// changes — without cold-solving the whole instance per event. The Engine
// holds the current equilibrium together with the solver's warm structures
// (the VDPS candidate generator and per-worker strategy spaces) and, on
// each applied batch, repairs only what the deltas invalidated before
// replaying the deterministic best-response (FGT) or evolutionary (IEGT)
// dynamics. Because the repaired structures are bit-identical to the ones a
// cold solve of the mutated instance would build, and the dynamics replay
// from the same seeded initialization, the warm equilibrium is bit-exact
// against game.ReferenceFGT / evo.ReferenceIEGT on the same instance — the
// differential tests pin this across seed and delta-sequence sweeps. See
// docs/STREAMING.md.
package stream

import (
	"errors"
	"fmt"
	"sort"

	"fairtask/internal/geo"
	"fairtask/internal/model"
)

// Kind discriminates stream deltas. The string values are the wire format
// of the HTTP event-ingest API (POST /stream/events) and the kind labels of
// the fta_stream_deltas_total metric.
type Kind string

// The delta grammar: everything that can change mid-stream about an FTA
// instance. Delivery points and the travel model are fixed for an engine's
// lifetime; replace the engine to change them.
const (
	// TaskArrived adds a task to an existing delivery point.
	TaskArrived Kind = "task_arrived"
	// TaskExpired removes a task (deadline passed or canceled upstream).
	TaskExpired Kind = "task_expired"
	// WorkerOnline adds a worker to the roster.
	WorkerOnline Kind = "worker_online"
	// WorkerOffline removes a worker from the roster.
	WorkerOffline Kind = "worker_offline"
	// RewardChanged re-prices an existing task (surge pricing, promotions).
	RewardChanged Kind = "reward_changed"
)

// Delta is one stream event. Every delta carries a strictly increasing
// sequence number; which of the remaining fields are read depends on Kind.
type Delta struct {
	// Seq orders the stream. The engine rejects any delta whose Seq is not
	// strictly greater than the last applied one, so duplicates and
	// reorderings fail deterministically instead of corrupting state.
	Seq uint64 `json:"seq"`
	// Kind selects the mutation.
	Kind Kind `json:"kind"`
	// At is the event's stream time in hours, carried for reporting; the
	// engine does not interpret it.
	At float64 `json:"at,omitempty"`

	// TaskID identifies the task for TaskArrived (must be fresh),
	// TaskExpired and RewardChanged (must exist).
	TaskID int `json:"task_id,omitempty"`
	// Point is the delivery-point index a TaskArrived task is delivered to.
	Point int `json:"point,omitempty"`
	// Expiry is the arriving task's absolute deadline in hours.
	Expiry float64 `json:"expiry,omitempty"`
	// Reward is the task payment: the arriving task's for TaskArrived, the
	// new price for RewardChanged.
	Reward float64 `json:"reward,omitempty"`

	// WorkerID identifies the worker for WorkerOnline (must be fresh) and
	// WorkerOffline (must exist).
	WorkerID int `json:"worker_id,omitempty"`
	// Loc, MaxDP, Priority, Contribution and Speed describe a WorkerOnline
	// arrival, with the same semantics as model.Worker.
	Loc          geo.Point `json:"loc,omitempty"`
	MaxDP        int       `json:"max_dp,omitempty"`
	Priority     float64   `json:"priority,omitempty"`
	Contribution float64   `json:"contribution,omitempty"`
	Speed        float64   `json:"speed,omitempty"`
}

// Deterministic rejection errors. All are detected before any engine state
// is mutated; a rejected delta consumes no sequence number.
var (
	// ErrStaleSeq rejects a delta whose sequence number is not strictly
	// greater than the last applied one (duplicate or out-of-order event).
	ErrStaleSeq = errors.New("stream: stale or duplicate event sequence")
	// ErrUnknownKind rejects a delta with an unrecognized Kind.
	ErrUnknownKind = errors.New("stream: unknown delta kind")
	// ErrUnknownTask rejects TaskExpired/RewardChanged for an absent task.
	ErrUnknownTask = errors.New("stream: unknown task")
	// ErrUnknownWorker rejects WorkerOffline for an absent worker.
	ErrUnknownWorker = errors.New("stream: unknown worker")
	// ErrUnknownPoint rejects TaskArrived at an out-of-range point index.
	ErrUnknownPoint = errors.New("stream: delivery point out of range")
	// ErrDuplicateTask rejects TaskArrived reusing an existing task ID.
	ErrDuplicateTask = errors.New("stream: duplicate task id")
	// ErrDuplicateWorker rejects WorkerOnline reusing an existing worker ID.
	ErrDuplicateWorker = errors.New("stream: duplicate worker id")
	// ErrBadDelta rejects a delta whose task or worker fails the model's
	// rules (Task.Validate, Worker.Validate, Instance.ValidateTotalReward);
	// the error wraps the model sentinel too.
	ErrBadDelta = errors.New("stream: invalid delta")
)

// Replay applies the deltas to the instance in order, mutating it in place,
// and returns the first rejection. It is the defining semantics of the
// delta grammar: the engine's differential tests pin a warm engine against
// a cold solve of a replayed instance, so Replay and the engine can never
// disagree about what a delta means. Sequence numbers are not checked here;
// ordering is the caller's responsibility.
func Replay(in *model.Instance, ds ...Delta) error {
	var plan repairPlan
	for i := range ds {
		if err := applyDelta(in, ds[i], &plan); err != nil {
			return err
		}
	}
	return nil
}

// repairPlan accumulates, across one staged batch, which parts of the
// instance the game-visible inputs could have changed in: the pre-batch
// signature of every touched delivery point and whether the worker roster
// changed. Comparing signatures after the whole batch (rather than flagging
// per delta) lets mutually canceling deltas — a task arriving and expiring
// in one batch — settle back to a no-op.
type repairPlan struct {
	base           map[int]pointSig
	workersChanged bool
}

// pointSig is the game-visible signature of one delivery point: the solvers
// read points only through EarliestExpiry (candidate feasibility) and
// TotalReward (candidate reward).
type pointSig struct {
	expiry, reward float64
}

// touch records point p's signature before its first mutation in the batch.
func (pl *repairPlan) touch(in *model.Instance, p int) {
	if pl.base == nil {
		pl.base = make(map[int]pointSig)
	}
	if _, ok := pl.base[p]; !ok {
		pl.base[p] = pointSig{
			expiry: in.Points[p].EarliestExpiry(),
			reward: in.Points[p].TotalReward(),
		}
	}
}

// diff compares the touched points' signatures against the staged instance:
// rewardPoints lists (ascending) the points whose total reward changed
// bitwise, and expiryPoints those whose earliest expiry changed bitwise —
// the points whose candidates the DP must regenerate (vdps.RepairExpiries).
func (pl *repairPlan) diff(in *model.Instance) (rewardPoints, expiryPoints []int) {
	if len(pl.base) == 0 {
		return nil, nil
	}
	pts := make([]int, 0, len(pl.base))
	for p := range pl.base {
		pts = append(pts, p)
	}
	sort.Ints(pts)
	for _, p := range pts {
		sig := pl.base[p]
		if in.Points[p].EarliestExpiry() != sig.expiry {
			expiryPoints = append(expiryPoints, p)
		}
		if in.Points[p].TotalReward() != sig.reward {
			rewardPoints = append(rewardPoints, p)
		}
	}
	return rewardPoints, expiryPoints
}

// applyDelta mutates in according to d, folding the touched state into the
// plan. It checks what only the delta grammar can: the point index and
// unknown or duplicate IDs. The task or worker a delta adds or re-prices
// must pass the model's rules, so a committed instance plus accepted deltas
// stays valid. Rejections leave the instance unchanged.
func applyDelta(in *model.Instance, d Delta, plan *repairPlan) error {
	switch d.Kind {
	case TaskArrived:
		if d.Point < 0 || d.Point >= len(in.Points) {
			return fmt.Errorf("%w: task %d at point %d of %d", ErrUnknownPoint, d.TaskID, d.Point, len(in.Points))
		}
		if p, _, ok := findTask(in, d.TaskID); ok {
			return fmt.Errorf("%w: task %d already at point %d", ErrDuplicateTask, d.TaskID, p)
		}
		plan.touch(in, d.Point)
		dp := &in.Points[d.Point]
		tasks := dp.Tasks
		dp.Tasks = append(tasks, model.Task{ID: d.TaskID, Point: d.Point, Expiry: d.Expiry, Reward: d.Reward})
		if err := checkPriced(in, &dp.Tasks[len(tasks)]); err != nil {
			dp.Tasks = tasks
			return err
		}
		return nil

	case TaskExpired:
		p, ti, ok := findTask(in, d.TaskID)
		if !ok {
			return fmt.Errorf("%w: task %d", ErrUnknownTask, d.TaskID)
		}
		plan.touch(in, p)
		tasks := in.Points[p].Tasks
		in.Points[p].Tasks = append(tasks[:ti], tasks[ti+1:]...)
		return nil

	case RewardChanged:
		p, ti, ok := findTask(in, d.TaskID)
		if !ok {
			return fmt.Errorf("%w: task %d", ErrUnknownTask, d.TaskID)
		}
		plan.touch(in, p)
		t := &in.Points[p].Tasks[ti]
		old := t.Reward
		t.Reward = d.Reward
		if err := checkPriced(in, t); err != nil {
			t.Reward = old
			return err
		}
		return nil

	case WorkerOnline:
		if w := findWorker(in, d.WorkerID); w >= 0 {
			return fmt.Errorf("%w: worker %d", ErrDuplicateWorker, d.WorkerID)
		}
		w := model.Worker{
			ID: d.WorkerID, Loc: d.Loc, MaxDP: d.MaxDP,
			Priority: d.Priority, Contribution: d.Contribution, Speed: d.Speed,
		}
		if err := w.Validate(); err != nil {
			return fmt.Errorf("%w: %w", ErrBadDelta, err)
		}
		plan.workersChanged = true
		in.Workers = append(in.Workers, w)
		return nil

	case WorkerOffline:
		w := findWorker(in, d.WorkerID)
		if w < 0 {
			return fmt.Errorf("%w: worker %d", ErrUnknownWorker, d.WorkerID)
		}
		plan.workersChanged = true
		in.Workers = append(in.Workers[:w], in.Workers[w+1:]...)
		return nil
	}
	return fmt.Errorf("%w: %q", ErrUnknownKind, d.Kind)
}

// checkPriced applies the model's task rule to t, a task of in, and its
// reward rule to in. A rejection matches both ErrBadDelta and the model
// sentinel.
func checkPriced(in *model.Instance, t *model.Task) error {
	err := t.Validate()
	if err == nil {
		err = in.ValidateTotalReward()
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadDelta, err)
	}
	return nil
}

// findTask locates a task by ID, returning its point index, its position in
// the point's task list, and whether it exists.
func findTask(in *model.Instance, id int) (point, ti int, ok bool) {
	for p := range in.Points {
		for i := range in.Points[p].Tasks {
			if in.Points[p].Tasks[i].ID == id {
				return p, i, true
			}
		}
	}
	return -1, -1, false
}

// findWorker locates a worker by ID, returning its index or -1.
func findWorker(in *model.Instance, id int) int {
	for w := range in.Workers {
		if in.Workers[w].ID == id {
			return w
		}
	}
	return -1
}
