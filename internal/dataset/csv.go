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
	rr := newRecordReader(r, csvColumns, ErrBadCSV)
	speed, metaLine := 5.0, 0
	var metric geo.Metric = geo.Euclidean{}
	type pointKey struct{ inst, id int }
	prob := &model.Problem{}
	instByID := map[int]int{}       // center ID -> instance index
	pointByID := map[pointKey]int{} // (instance index, point ID) -> index in its Points
	// inst resolves the record's center ID to its instance index.
	inst := func() (int, bool) {
		cid := rr.int(1, "center ID")
		ii, ok := instByID[cid]
		if !ok {
			rr.fail(1, "record references unknown center %d", cid)
		}
		return ii, ok && rr.err == nil
	}

	for rr.next() {
		rec := rr.rec
		switch rec[0] {
		case "meta":
			speed, metaLine = rr.float(1, "speed"), rr.line
			switch rec[5] {
			case "euclidean", "":
				metric = geo.Euclidean{}
			case "manhattan":
				metric = geo.Manhattan{}
			default:
				rr.fail(5, "unknown metric %q", rec[5])
			}
		case "center":
			cid, loc := rr.int(1, "center ID"), geo.Pt(rr.float(3, "x"), rr.float(4, "y"))
			if _, dup := instByID[cid]; dup {
				rr.fail(1, "duplicate center %d", cid)
			}
			instByID[cid] = len(prob.Instances)
			prob.Instances = append(prob.Instances, model.Instance{CenterID: cid, Center: loc})
		case "point":
			if ii, ok := inst(); ok {
				in := &prob.Instances[ii]
				id := rr.int(2, "point ID")
				pointByID[pointKey{ii, id}] = len(in.Points)
				in.Points = append(in.Points, model.DeliveryPoint{ID: id, Loc: geo.Pt(rr.float(3, "x"), rr.float(4, "y"))})
			}
		case "task":
			if ii, ok := inst(); ok {
				id, pid := rr.int(2, "task ID"), rr.int(3, "task point ID")
				expiry, reward := rr.float(5, "expiry"), rr.float(6, "reward")
				local, ok := pointByID[pointKey{ii, pid}]
				if !ok {
					rr.fail(3, "task %d references unknown point %d", id, pid)
					break
				}
				dp := &prob.Instances[ii].Points[local]
				dp.Tasks = append(dp.Tasks, model.Task{ID: id, Point: local, Expiry: expiry, Reward: reward})
			}
		case "worker":
			if ii, ok := inst(); ok {
				w := model.Worker{
					ID:    rr.int(2, "worker ID"),
					Loc:   geo.Pt(rr.float(3, "x"), rr.float(4, "y")),
					MaxDP: rr.int(5, "maxDP"),
				}
				if rec[6] != "" {
					w.Speed = rr.float(6, "worker speed")
				}
				in := &prob.Instances[ii]
				in.Workers = append(in.Workers, w)
			}
		default:
			rr.fail(0, "unknown record kind %q", rec[0])
		}
	}
	if rr.err != nil {
		return nil, rr.err
	}
	tm, err := travel.NewModel(metric, speed)
	if err != nil {
		return nil, fmt.Errorf("%w: line %d, field 2: %v", ErrBadCSV, metaLine, err)
	}
	for i := range prob.Instances {
		prob.Instances[i].Travel = tm
	}
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	return prob, nil
}

// recordReader is the one record loop of the package's CSV decoders. It
// reads records of a fixed field count into one reused slice, and its
// field parsers keep the first failure, wrapped in the decoder's sentinel
// and naming its line and field. A decoder parses a whole record and checks
// err once; after a failure next returns false.
type recordReader struct {
	cr       *csv.Reader
	sentinel error
	// rec is the current record and line the line it starts on.
	rec  []string
	line int
	err  error
}

// newRecordReader reads records of the given field count from r and wraps
// every failure in sentinel.
func newRecordReader(r io.Reader, fields int, sentinel error) *recordReader {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = fields
	cr.ReuseRecord = true
	return &recordReader{cr: cr, sentinel: sentinel}
}

// next reads the next record. It returns false at the end of the input and
// once err is set.
func (rr *recordReader) next() bool {
	if rr.err != nil {
		return false
	}
	rec, err := rr.cr.Read()
	if err == io.EOF {
		return false
	}
	if err != nil {
		// A parse error names its line; a read error is named here. Both
		// stay wrapped, so callers can errors.As through to transport-level
		// causes such as *http.MaxBytesError.
		var pe *csv.ParseError
		if !errors.As(err, &pe) {
			err = fmt.Errorf("line %d: %w", rr.line+1, err)
		}
		rr.err = fmt.Errorf("%w: %w", rr.sentinel, err)
		return false
	}
	rr.rec = rec
	rr.line, _ = rr.cr.FieldPos(0)
	return true
}

// fail keeps the first failure of the current record, naming the line and
// the 1-based number of field i.
func (rr *recordReader) fail(i int, format string, args ...any) {
	if rr.err == nil {
		line, _ := rr.cr.FieldPos(i)
		rr.err = fmt.Errorf("%w: line %d, field %d: %s", rr.sentinel, line, i+1, fmt.Sprintf(format, args...))
	}
}

// int parses field i, named what, as an integer.
func (rr *recordReader) int(i int, what string) int {
	v, err := strconv.Atoi(rr.rec[i])
	if err != nil {
		rr.fail(i, "bad %s %q", what, rr.rec[i])
	}
	return v
}

// float parses field i, named what, as a float64.
func (rr *recordReader) float(i int, what string) float64 {
	v, err := strconv.ParseFloat(rr.rec[i], 64)
	if err != nil {
		rr.fail(i, "bad %s %q", what, rr.rec[i])
	}
	return v
}
