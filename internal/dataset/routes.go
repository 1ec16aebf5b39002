package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"fairtask/internal/model"
	"fairtask/internal/payoff"
)

// ErrAssignmentCSV is the sentinel wrapped by every ReadAssignmentCSV
// rejection — malformed rows, unknown IDs, duplicate or missing stops.
// Classify parse failures with errors.Is without matching message text.
var ErrAssignmentCSV = errors.New("dataset: invalid assignment csv")

// WriteAssignmentCSV writes the routes of a per-center assignment set as a
// flat CSV for downstream tooling (dispatch systems, dashboards). One row
// per visited delivery point:
//
//	center,worker,stop,point,arrival,reward,payoff
//
// where stop is the 0-based position in the worker's route, arrival the
// worker's arrival time at the point in hours, reward the point's total
// task reward, and payoff the worker's overall payoff (repeated per row).
// assignments must be indexed like problem.Instances.
func WriteAssignmentCSV(w io.Writer, p *model.Problem, assignments []*model.Assignment) error {
	if len(assignments) != len(p.Instances) {
		return fmt.Errorf("dataset: %d assignments for %d instances",
			len(assignments), len(p.Instances))
	}
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"center", "worker", "stop", "point", "arrival", "reward", "payoff"}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i := range p.Instances {
		in := &p.Instances[i]
		a := assignments[i]
		if a == nil {
			continue
		}
		if err := a.Validate(in); err != nil {
			return fmt.Errorf("dataset: center %d: %w", in.CenterID, err)
		}
		for wi, route := range a.Routes {
			if len(route) == 0 {
				continue
			}
			arr := in.RouteArrivals(wi, route)
			pf := payoff.Worker(in, wi, route)
			for stop, pt := range route {
				rec := []string{
					strconv.Itoa(in.CenterID),
					strconv.Itoa(in.Workers[wi].ID),
					strconv.Itoa(stop),
					strconv.Itoa(in.Points[pt].ID),
					f(arr[stop]),
					f(in.Points[pt].TotalReward()),
					f(pf),
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadAssignmentCSV parses the WriteAssignmentCSV format back into per-center
// assignments indexed like p.Instances, resolving center, worker and point
// IDs against the problem. Centers absent from the file get empty (not nil)
// assignments, so the result can be audited or re-written directly. The
// arrival, reward and payoff columns are ignored: they are derived data, and
// re-deriving them is exactly what the auditor is for.
func ReadAssignmentCSV(r io.Reader, p *model.Problem) ([]*model.Assignment, error) {
	rr := newRecordReader(r, 7, ErrAssignmentCSV)
	if !rr.next() {
		if rr.err != nil {
			return nil, rr.err
		}
		return nil, fmt.Errorf("%w: line 1: missing header", ErrAssignmentCSV)
	}
	for i, col := range []string{"center", "worker", "stop", "point", "arrival", "reward", "payoff"} {
		if rr.rec[i] != col {
			rr.fail(i, "column is %q, want %q", rr.rec[i], col)
		}
	}

	centers := make(map[int]int, len(p.Instances))
	workers := make([]map[int]int, len(p.Instances))
	points := make([]map[int]int, len(p.Instances))
	for i := range p.Instances {
		in := &p.Instances[i]
		centers[in.CenterID] = i
		workers[i] = make(map[int]int, len(in.Workers))
		for wi := range in.Workers {
			workers[i][in.Workers[wi].ID] = wi
		}
		points[i] = make(map[int]int, len(in.Points))
		for pi := range in.Points {
			points[i][in.Points[pi].ID] = pi
		}
	}

	// stops[instance][worker] maps stop position -> point index and the
	// line naming it; routes are materialized after reading so row order
	// does not matter.
	type routeKey struct{ inst, worker int }
	type stopAt struct{ point, line int }
	stops := make(map[routeKey]map[int]stopAt)
	for rr.next() {
		centerID, workerID := rr.int(0, "center"), rr.int(1, "worker")
		stop, pointID := rr.int(2, "stop"), rr.int(3, "point")
		if stop < 0 {
			rr.fail(2, "bad stop %q", rr.rec[2])
		}
		inst, ok := centers[centerID]
		if !ok {
			rr.fail(0, "unknown center %d", centerID)
			continue
		}
		wi, ok := workers[inst][workerID]
		if !ok {
			rr.fail(1, "unknown worker %d in center %d", workerID, centerID)
			continue
		}
		pi, ok := points[inst][pointID]
		if !ok {
			rr.fail(3, "unknown point %d in center %d", pointID, centerID)
			continue
		}
		k := routeKey{inst, wi}
		if stops[k] == nil {
			stops[k] = make(map[int]stopAt)
		}
		if _, dup := stops[k][stop]; dup {
			rr.fail(2, "duplicate stop %d for worker %d in center %d", stop, workerID, centerID)
		}
		stops[k][stop] = stopAt{pi, rr.line}
	}
	if rr.err != nil {
		return nil, rr.err
	}

	out := make([]*model.Assignment, len(p.Instances))
	for i := range p.Instances {
		out[i] = model.NewAssignment(len(p.Instances[i].Workers))
	}
	for k, byStop := range stops {
		route := make([]int, len(byStop))
		for stop, at := range byStop {
			if stop >= len(route) {
				in := &p.Instances[k.inst]
				return nil, fmt.Errorf("%w: line %d: center %d worker %d: stop %d with only %d stops (missing earlier stop)",
					ErrAssignmentCSV, at.line, in.CenterID, in.Workers[k.worker].ID, stop, len(byStop))
			}
			route[stop] = at.point
		}
		out[k.inst].Routes[k.worker] = route
	}
	return out, nil
}
