package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"strings"
	"testing"

	"fairtask/internal/model"
)

// FuzzReadCSV checks the CSV reader never panics and that anything it
// accepts round-trips through WriteCSV and back to an equivalent problem.
func FuzzReadCSV(f *testing.F) {
	// Seed corpus: a real generated problem plus malformed fragments.
	p, err := GenerateSYN(SYNConfig{Seed: 1, Centers: 2, Tasks: 12, Workers: 4, DeliveryPoints: 6})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, p); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("meta,5,,,,euclidean,\n")
	f.Add("center,0,,0,0,,\npoint,0,0,1,2,,\ntask,0,0,0,,1,1\n")
	f.Add(kindGroupedCSV)
	f.Add("garbage")
	f.Add("")
	f.Add(strings.ReplaceAll(buf.String(), "\n", "\r\n"))

	f.Fuzz(func(t *testing.T, data string) {
		prob, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, prob); err != nil {
			t.Fatalf("accepted problem failed to serialize: %v", err)
		}
		again, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("round trip of accepted problem failed: %v", err)
		}
		if again.TaskCount() != prob.TaskCount() || again.WorkerCount() != prob.WorkerCount() {
			t.Fatal("round trip changed the problem")
		}
	})
}

// FuzzRecordReader pins the decoders' tokenizer against encoding/csv: on
// any input with no '"' and no line over maxLine bytes before its "\n",
// recordReader yields the records, field by field, and the line numbers
// that a csv.Reader with the same field count yields, or both reject the
// input at the same line.
func FuzzRecordReader(f *testing.F) {
	f.Add(uint8(7), "meta,5,,,,euclidean,\ncenter,0,,0,0,,\r\n\npoint,0,0,1,2,,\r")
	f.Add(uint8(3), "1,2,3\n\n\r\n4,5,6\r\r\n7,8\n")
	f.Add(uint8(3), "a,b,c\r\n,,\n\r")
	f.Add(uint8(1), "\n\nx\ry\n\r\n")
	f.Add(uint8(5), "0,1,1,1,1\n1,1,1,1,1,1\n")

	f.Fuzz(func(t *testing.T, fields uint8, data string) {
		n := 1 + int(fields%8)
		if strings.Contains(data, `"`) {
			return
		}
		for _, line := range strings.Split(data, "\n") {
			if len(line) > maxLine {
				return
			}
		}
		rr := newRecordReader(strings.NewReader(data), n, ErrBadCSV)
		cr := csv.NewReader(strings.NewReader(data))
		cr.FieldsPerRecord = n
		for {
			ok := rr.next()
			want, err := cr.Read()
			if err == io.EOF {
				if ok || rr.err != nil {
					t.Fatalf("csv ends, recordReader reads on: ok %v, err %v", ok, rr.err)
				}
				return
			}
			if err != nil {
				var pe *csv.ParseError
				if !errors.As(err, &pe) {
					t.Fatalf("csv read error %v", err)
				}
				if ok || rr.err == nil || rr.line != pe.Line {
					t.Fatalf("csv rejects line %d (%v), recordReader: ok %v, line %d, err %v", pe.Line, err, ok, rr.line, rr.err)
				}
				return
			}
			if !ok {
				t.Fatalf("csv reads %q, recordReader stops: %v", want, rr.err)
			}
			if line, _ := cr.FieldPos(0); rr.line != line {
				t.Fatalf("record %q: line %d, csv says %d", want, rr.line, line)
			}
			for i := range want {
				if string(rr.rec[i]) != want[i] {
					t.Fatalf("line %d field %d: %q, csv says %q", rr.line, i+1, rr.rec[i], want[i])
				}
			}
		}
	})
}

// FuzzReadAssignmentCSV checks the assignment-route reader never panics,
// rejects malformed input with the typed ErrAssignmentCSV sentinel, and
// shapes every accepted result like the problem it resolves against.
func FuzzReadAssignmentCSV(f *testing.F) {
	p, err := GenerateSYN(SYNConfig{Seed: 2, Centers: 2, Tasks: 12, Workers: 4, DeliveryPoints: 6})
	if err != nil {
		f.Fatal(err)
	}
	header := "center,worker,stop,point,arrival,reward,payoff\n"
	// Seed corpus: a real (empty-routes) export plus the canonical header
	// with plausible and malformed rows.
	empty := make([]*model.Assignment, len(p.Instances))
	for i := range empty {
		empty[i] = model.NewAssignment(len(p.Instances[i].Workers))
	}
	var buf bytes.Buffer
	if err := WriteAssignmentCSV(&buf, p, empty); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(header)
	f.Add(header + "0,0,0,0,1,1,1\n")
	f.Add(header + "0,0,0,0,1,1,1\n0,0,1,1,2,1,1\n")
	f.Add(header + "99,0,0,0,1,1,1\n")
	f.Add(header + "0,99,0,0,1,1,1\n")
	f.Add(header + "0,0,-1,0,1,1,1\n")
	f.Add(header + "0,0,0,0,1,1,1\n0,0,0,1,1,1,1\n")
	f.Add(header + "0,0,5,0,1,1,1\n")
	f.Add("garbage")
	f.Add("")

	f.Fuzz(func(t *testing.T, data string) {
		got, err := ReadAssignmentCSV(strings.NewReader(data), p)
		if err != nil {
			if !errors.Is(err, ErrAssignmentCSV) {
				t.Fatalf("rejection %v is not typed as ErrAssignmentCSV", err)
			}
			return
		}
		if len(got) != len(p.Instances) {
			t.Fatalf("accepted result has %d assignments for %d instances",
				len(got), len(p.Instances))
		}
		for i, a := range got {
			if a == nil {
				t.Fatalf("accepted result has nil assignment for instance %d", i)
			}
			if len(a.Routes) != len(p.Instances[i].Workers) {
				t.Fatalf("instance %d: %d routes for %d workers",
					i, len(a.Routes), len(p.Instances[i].Workers))
			}
		}
	})
}

// FuzzLoadGMission checks the raw gMission loader never panics and every
// accepted input yields a valid instance.
func FuzzLoadGMission(f *testing.F) {
	tasks, workers := fixtureGMission(10, 3)
	f.Add(tasks, workers)
	f.Add("", "")
	f.Add("0,1,1,1,1\n", "0,0,0,1\n")
	f.Add("x,y,z\n", "1,2\n")

	f.Fuzz(func(t *testing.T, taskCSV, workerCSV string) {
		in, err := LoadGMission(strings.NewReader(taskCSV), strings.NewReader(workerCSV),
			GMissionOptions{DeliveryPoints: 4})
		if err != nil {
			return
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("accepted instance fails validation: %v", err)
		}
	})
}
