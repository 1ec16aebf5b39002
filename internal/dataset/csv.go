package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"fairtask/internal/geo"
	"fairtask/internal/model"
	"fairtask/internal/travel"
)

// CSV persistence: a problem is a flat record stream with one row per
// entity, so instances can be inspected with standard tooling and exchanged
// between runs. The schema is:
//
//	kind,center,id,x,y,a,b
//
// where kind is one of "meta", "center", "point", "task", "worker":
//
//	meta:   center = speed, id unused, a = metric name
//	center: center = center ID, x/y = location
//	point:  center = center ID, id = point ID, x/y = location
//	task:   center = center ID, id = task ID, x = point ID, a = expiry, b = reward
//	worker: center = center ID, id = worker ID, x/y = location, a = maxDP,
//	        b = speed override (empty or 0 = instance default)
//
// Point, task and worker IDs are scoped to their center: two centers may
// each have a point 1, and a task's point ID names a point of its own
// center. A record must follow its center's record, and a task its point's.
var (
	// ErrBadCSV reports a malformed record stream.
	ErrBadCSV = errors.New("dataset: malformed CSV")
)

const csvColumns = 7

// WriteCSV writes the problem to w in the package's CSV schema.
func WriteCSV(w io.Writer, p *model.Problem) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()

	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	d := strconv.Itoa

	speed := 5.0 // placeholder for empty problems; instances override it
	metric := "euclidean"
	if len(p.Instances) > 0 {
		speed = p.Instances[0].Travel.Speed()
		metric = p.Instances[0].Travel.Metric().Name()
	}
	if err := cw.Write([]string{"meta", f(speed), "", "", "", metric, ""}); err != nil {
		return err
	}
	for i := range p.Instances {
		in := &p.Instances[i]
		ci := d(in.CenterID)
		if err := cw.Write([]string{"center", ci, "", f(in.Center.X), f(in.Center.Y), "", ""}); err != nil {
			return err
		}
		for pi := range in.Points {
			dp := &in.Points[pi]
			if err := cw.Write([]string{"point", ci, d(dp.ID), f(dp.Loc.X), f(dp.Loc.Y), "", ""}); err != nil {
				return err
			}
			for _, t := range dp.Tasks {
				if err := cw.Write([]string{"task", ci, d(t.ID), d(dp.ID), "", f(t.Expiry), f(t.Reward)}); err != nil {
					return err
				}
			}
		}
		for _, wk := range in.Workers {
			if err := cw.Write([]string{"worker", ci, d(wk.ID), f(wk.Loc.X), f(wk.Loc.Y), d(wk.MaxDP), f(wk.Speed)}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a problem previously written by WriteCSV.
func ReadCSV(r io.Reader) (*model.Problem, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = csvColumns

	speed := 5.0
	var metric geo.Metric = geo.Euclidean{}
	type pointKey struct{ inst, id int }
	prob := &model.Problem{}
	instByID := map[int]int{}       // center ID -> instance index
	pointByID := map[pointKey]int{} // (instance index, point ID) -> index in its Points

	parseF := func(s, what string) (float64, error) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("%w: bad %s %q", ErrBadCSV, what, s)
		}
		return v, nil
	}
	parseI := func(s, what string) (int, error) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("%w: bad %s %q", ErrBadCSV, what, s)
		}
		return v, nil
	}

	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Wrap the reader error too, so callers can errors.As through to
			// transport-level causes such as *http.MaxBytesError.
			return nil, fmt.Errorf("%w: %w", ErrBadCSV, err)
		}
		switch rec[0] {
		case "meta":
			if speed, err = parseF(rec[1], "speed"); err != nil {
				return nil, err
			}
			switch rec[5] {
			case "euclidean", "":
				metric = geo.Euclidean{}
			case "manhattan":
				metric = geo.Manhattan{}
			default:
				return nil, fmt.Errorf("%w: unknown metric %q", ErrBadCSV, rec[5])
			}
		case "center":
			cid, err := parseI(rec[1], "center ID")
			if err != nil {
				return nil, err
			}
			x, err := parseF(rec[3], "x")
			if err != nil {
				return nil, err
			}
			y, err := parseF(rec[4], "y")
			if err != nil {
				return nil, err
			}
			if _, dup := instByID[cid]; dup {
				return nil, fmt.Errorf("%w: duplicate center %d", ErrBadCSV, cid)
			}
			instByID[cid] = len(prob.Instances)
			prob.Instances = append(prob.Instances, model.Instance{
				CenterID: cid,
				Center:   geo.Pt(x, y),
			})
		case "point":
			ii, err := instOf(rec[1], instByID, parseI)
			if err != nil {
				return nil, err
			}
			id, err := parseI(rec[2], "point ID")
			if err != nil {
				return nil, err
			}
			x, err := parseF(rec[3], "x")
			if err != nil {
				return nil, err
			}
			y, err := parseF(rec[4], "y")
			if err != nil {
				return nil, err
			}
			in := &prob.Instances[ii]
			pointByID[pointKey{ii, id}] = len(in.Points)
			in.Points = append(in.Points, model.DeliveryPoint{ID: id, Loc: geo.Pt(x, y)})
		case "task":
			ii, err := instOf(rec[1], instByID, parseI)
			if err != nil {
				return nil, err
			}
			id, err := parseI(rec[2], "task ID")
			if err != nil {
				return nil, err
			}
			pid, err := parseI(rec[3], "task point ID")
			if err != nil {
				return nil, err
			}
			expiry, err := parseF(rec[5], "expiry")
			if err != nil {
				return nil, err
			}
			reward, err := parseF(rec[6], "reward")
			if err != nil {
				return nil, err
			}
			local, ok := pointByID[pointKey{ii, pid}]
			if !ok {
				return nil, fmt.Errorf("%w: task %d references unknown point %d", ErrBadCSV, id, pid)
			}
			dp := &prob.Instances[ii].Points[local]
			dp.Tasks = append(dp.Tasks, model.Task{ID: id, Point: local, Expiry: expiry, Reward: reward})
		case "worker":
			ii, err := instOf(rec[1], instByID, parseI)
			if err != nil {
				return nil, err
			}
			id, err := parseI(rec[2], "worker ID")
			if err != nil {
				return nil, err
			}
			x, err := parseF(rec[3], "x")
			if err != nil {
				return nil, err
			}
			y, err := parseF(rec[4], "y")
			if err != nil {
				return nil, err
			}
			maxDP, err := parseI(rec[5], "maxDP")
			if err != nil {
				return nil, err
			}
			speed := 0.0
			if rec[6] != "" {
				if speed, err = parseF(rec[6], "worker speed"); err != nil {
					return nil, err
				}
			}
			prob.Instances[ii].Workers = append(prob.Instances[ii].Workers, model.Worker{
				ID: id, Loc: geo.Pt(x, y), MaxDP: maxDP, Speed: speed,
			})
		default:
			return nil, fmt.Errorf("%w: unknown record kind %q", ErrBadCSV, rec[0])
		}
	}

	tm, err := travel.NewModel(metric, speed)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCSV, err)
	}
	for i := range prob.Instances {
		prob.Instances[i].Travel = tm
	}
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	return prob, nil
}

func instOf(field string, byID map[int]int, parseI func(string, string) (int, error)) (int, error) {
	cid, err := parseI(field, "center ID")
	if err != nil {
		return 0, err
	}
	ii, ok := byID[cid]
	if !ok {
		return 0, fmt.Errorf("%w: record references unknown center %d", ErrBadCSV, cid)
	}
	return ii, nil
}
