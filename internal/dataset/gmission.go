package dataset

import (
	"fmt"
	"io"
	"math/rand"

	"fairtask/internal/cluster"
	"fairtask/internal/geo"
	"fairtask/internal/model"
	"fairtask/internal/travel"
)

// GMission raw-file support: the paper evaluates on the gMission dataset
// [29], which this container cannot download. When you have the data,
// export it to two headerless CSV files and load them here; the same
// preprocessing as the paper (centroid distribution center, k-means
// delivery points) is then applied.
//
//	tasks.csv:   task_id,x,y,expiry_hours,reward
//	workers.csv: worker_id,x,y,maxdp
//
// Coordinates must share one planar unit (km after projection).

// GMissionOptions configure LoadGMission.
type GMissionOptions struct {
	// DeliveryPoints is the k-means cluster count x (Table I: 20..100).
	// Zero means 100, capped at the task count.
	DeliveryPoints int
	// Speed is the worker speed in km/h. Zero means 5.
	Speed float64
	// Seed drives the k-means seeding.
	Seed int64
}

// ErrBadGMission reports malformed raw gMission rows.
var ErrBadGMission = fmt.Errorf("dataset: malformed gMission CSV")

// gmTask is one raw task row.
type gmTask struct {
	id     int
	loc    geo.Point
	expiry float64
	reward float64
}

// LoadGMission reads raw task and worker CSVs (schema above) and builds the
// single-center instance exactly as the paper preprocesses gMission: the
// distribution center at the centroid of all task locations and delivery
// points from k-means clustering of the tasks.
func LoadGMission(tasks, workers io.Reader, opt GMissionOptions) (*model.Instance, error) {
	rawTasks, err := readGMissionTasks(tasks)
	if err != nil {
		return nil, err
	}
	if len(rawTasks) == 0 {
		return nil, fmt.Errorf("%w: no tasks", ErrBadGMission)
	}
	rawWorkers, err := readGMissionWorkers(workers)
	if err != nil {
		return nil, err
	}

	k := opt.DeliveryPoints
	if k <= 0 {
		k = 100
	}
	if k > len(rawTasks) {
		k = len(rawTasks)
	}
	speed := opt.Speed
	if speed <= 0 {
		speed = 5
	}
	tm, err := travel.NewModel(geo.Euclidean{}, speed)
	if err != nil {
		return nil, err
	}

	locs := make([]geo.Point, len(rawTasks))
	for i, t := range rawTasks {
		locs[i] = t.loc
	}
	center, _ := geo.Centroid(locs)
	km, err := cluster.KMeans(locs, k, cluster.Options{
		Rand: newSeededRand(opt.Seed),
	})
	if err != nil {
		return nil, fmt.Errorf("dataset: clustering gMission tasks: %w", err)
	}

	in := &model.Instance{Center: center, Travel: tm}
	remap := make([]int, len(km.Centroids))
	for i := range remap {
		remap[i] = -1
	}
	for ci, cent := range km.Centroids {
		used := false
		for _, a := range km.Assign {
			if a == ci {
				used = true
				break
			}
		}
		if !used {
			continue
		}
		remap[ci] = len(in.Points)
		in.Points = append(in.Points, model.DeliveryPoint{
			ID:  len(in.Points),
			Loc: cent,
		})
	}
	for ti, a := range km.Assign {
		pi := remap[a]
		t := rawTasks[ti]
		in.Points[pi].Tasks = append(in.Points[pi].Tasks, model.Task{
			ID:     t.id,
			Point:  pi,
			Expiry: t.expiry,
			Reward: t.reward,
		})
	}
	in.Workers = rawWorkers
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

func readGMissionTasks(r io.Reader) ([]gmTask, error) {
	rr := newRecordReader(r, 5, fmt.Errorf("%w: tasks", ErrBadGMission))
	var out []gmTask
	for rr.next() {
		out = append(out, gmTask{
			id:     rr.int(0, "id"),
			loc:    geo.Pt(rr.float(1, "x"), rr.float(2, "y")),
			expiry: rr.float(3, "expiry"),
			reward: rr.float(4, "reward"),
		})
	}
	return out, rr.err
}

func readGMissionWorkers(r io.Reader) ([]model.Worker, error) {
	rr := newRecordReader(r, 4, fmt.Errorf("%w: workers", ErrBadGMission))
	var out []model.Worker
	for rr.next() {
		out = append(out, model.Worker{
			ID:    rr.int(0, "id"),
			Loc:   geo.Pt(rr.float(1, "x"), rr.float(2, "y")),
			MaxDP: rr.int(3, "maxdp"),
		})
	}
	return out, rr.err
}

// newSeededRand returns a deterministic rand source for the loader.
func newSeededRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
