package stream

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"fairtask/internal/dataset"
	"fairtask/internal/geo"
	"fairtask/internal/model"
)

// TestBoundariesAgree runs every bad task and worker value through each
// input boundary: Instance.Validate, the problem CSV (where its schema
// carries the value), Engine.ApplyAll and Replay. All of them must reject
// it with the same model sentinel. The two stream paths must also match
// ErrBadDelta and leave the engine's sequence cursor and the replayed
// instance as they were before the bad delta.
func TestBoundariesAgree(t *testing.T) {
	base := gmInstance(t, 4, 20, 4, 8)
	eng, err := New(context.Background(), base, Options{VDPS: testVDPS})
	if err != nil {
		t.Fatal(err)
	}
	inf, nan := math.Inf(1), math.NaN()
	task := func(id int, expiry, reward float64) Delta {
		return Delta{Kind: TaskArrived, TaskID: id, Point: 1, Expiry: expiry, Reward: reward}
	}
	reprice := func(reward float64) Delta {
		return Delta{Kind: RewardChanged, TaskID: base.Points[0].Tasks[0].ID, Reward: reward}
	}
	worker := func(w model.Worker) Delta {
		if w.Loc == (geo.Point{}) {
			w.Loc = base.Center
		}
		return Delta{
			Kind: WorkerOnline, WorkerID: 1 << 20, Loc: w.Loc, MaxDP: w.MaxDP,
			Priority: w.Priority, Contribution: w.Contribution, Speed: w.Speed,
		}
	}
	const fresh = 1 << 20
	cases := []struct {
		name string
		// ds ends in the bad delta; the ones before it are valid.
		ds []Delta
		// csv is set when the problem CSV can carry the bad value.
		csv  bool
		want error
	}{
		{"zero expiry", []Delta{task(fresh, 0, 1)}, true, model.ErrBadTaskExpiry},
		{"negative expiry", []Delta{task(fresh, -1, 1)}, true, model.ErrBadTaskExpiry},
		{"NaN expiry", []Delta{task(fresh, nan, 1)}, true, model.ErrBadTaskExpiry},
		{"infinite expiry", []Delta{task(fresh, inf, 1)}, true, model.ErrBadTaskExpiry},
		{"negative reward", []Delta{task(fresh, 1, -1)}, true, model.ErrBadTaskReward},
		{"NaN reward", []Delta{task(fresh, 1, nan)}, true, model.ErrBadTaskReward},
		{"infinite reward", []Delta{task(fresh, 1, inf)}, true, model.ErrBadTaskReward},
		{"negative re-price", []Delta{reprice(-1)}, true, model.ErrBadTaskReward},
		{"infinite re-price", []Delta{reprice(inf)}, true, model.ErrBadTaskReward},
		{"reward total past MaxFloat64", []Delta{task(fresh, 1, 1e308), task(fresh+1, 1, 1e308)}, true, model.ErrBadTaskReward},
		{"re-price total past MaxFloat64", []Delta{task(fresh, 1, 1e308), reprice(1e308)}, true, model.ErrBadTaskReward},
		{"NaN location", []Delta{worker(model.Worker{Loc: geo.Pt(nan, 0)})}, true, model.ErrBadLocation},
		{"infinite location", []Delta{worker(model.Worker{Loc: geo.Pt(0, -inf)})}, true, model.ErrBadLocation},
		{"negative maxDP", []Delta{worker(model.Worker{MaxDP: -1})}, true, model.ErrNegativeMaxDP},
		{"negative speed", []Delta{worker(model.Worker{Speed: -1})}, true, model.ErrBadWorkerSpeed},
		{"NaN speed", []Delta{worker(model.Worker{Speed: nan})}, true, model.ErrBadWorkerSpeed},
		{"negative priority", []Delta{worker(model.Worker{Priority: -1})}, false, model.ErrBadWorkerWeight},
		{"negative contribution", []Delta{worker(model.Worker{Contribution: -2})}, false, model.ErrBadWorkerWeight},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := forceDeltas(base, c.ds)
			if err := bad.Validate(); !errors.Is(err, c.want) {
				t.Errorf("Instance.Validate: err = %v, want %v", err, c.want)
			}
			if c.csv {
				var buf bytes.Buffer
				if err := dataset.WriteCSV(&buf, &model.Problem{Instances: []model.Instance{*bad}}); err != nil {
					t.Fatal(err)
				}
				if _, err := dataset.ReadCSV(&buf); !errors.Is(err, c.want) {
					t.Errorf("dataset.ReadCSV: err = %v, want %v", err, c.want)
				}
			}

			seq := eng.Snapshot().Seq
			ds := append([]Delta(nil), c.ds...)
			for i := range ds {
				ds[i].Seq = seq + uint64(i) + 1
			}
			_, err := eng.ApplyAll(context.Background(), ds)
			if !errors.Is(err, c.want) || !errors.Is(err, ErrBadDelta) {
				t.Errorf("Engine.ApplyAll: err = %v, want %v and %v", err, ErrBadDelta, c.want)
			}
			if got := eng.Snapshot().Seq; got != seq {
				t.Errorf("Engine.ApplyAll: rejection moved Seq from %d to %d", seq, got)
			}

			before := base.Clone()
			if err := Replay(before, c.ds[:len(c.ds)-1]...); err != nil {
				t.Fatal(err)
			}
			in := before.Clone()
			err = Replay(in, c.ds[len(c.ds)-1])
			if !errors.Is(err, c.want) || !errors.Is(err, ErrBadDelta) {
				t.Errorf("Replay: err = %v, want %v and %v", err, ErrBadDelta, c.want)
			}
			if !reflect.DeepEqual(in, before) {
				t.Error("Replay: the rejected delta changed the instance")
			}
		})
	}
}

// forceDeltas returns a clone of in with the arrivals, re-pricings and
// worker arrivals of ds applied as they are, unchecked.
func forceDeltas(in *model.Instance, ds []Delta) *model.Instance {
	out := in.Clone()
	for _, d := range ds {
		switch d.Kind {
		case TaskArrived:
			dp := &out.Points[d.Point]
			dp.Tasks = append(dp.Tasks, model.Task{ID: d.TaskID, Point: d.Point, Expiry: d.Expiry, Reward: d.Reward})
		case RewardChanged:
			p, ti, _ := findTask(out, d.TaskID)
			out.Points[p].Tasks[ti].Reward = d.Reward
		case WorkerOnline:
			out.Workers = append(out.Workers, model.Worker{
				ID: d.WorkerID, Loc: d.Loc, MaxDP: d.MaxDP,
				Priority: d.Priority, Contribution: d.Contribution, Speed: d.Speed,
			})
		}
	}
	return out
}
