package dataset

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// TestDecodeErrorsNameTheirLine pins that every decoder rejects a bad
// record with its own sentinel and names the line the record is on:
// field parse failures, unknown references, malformed CSV and read errors.
func TestDecodeErrorsNameTheirLine(t *testing.T) {
	errRead := errors.New("connection reset")
	p, err := GenerateSYN(SYNConfig{Seed: 1, Centers: 1, Tasks: 10, Workers: 2, DeliveryPoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := &p.Instances[0]
	row := func(center, worker, stop, point int) string {
		return fmt.Sprintf("%d,%d,%d,%d,0,1,1\n", center, worker, stop, point)
	}
	c, w, pt := in.CenterID, in.Workers[0].ID, in.Points[0].ID
	const (
		center  = "center,0,,0,0,,\n"
		point   = "point,0,0,1,2,,\n"
		header  = "center,worker,stop,point,arrival,reward,payoff\n"
		gmTasks = "0,1,1,1,1\n1,1,1,1,1\n"
	)
	problem := func(body string) func() error {
		return func() error { _, err := ReadCSV(strings.NewReader(body)); return err }
	}
	routes := func(body string) func() error {
		return func() error { _, err := ReadAssignmentCSV(strings.NewReader(body), p); return err }
	}
	gmission := func(tasks, workers string) func() error {
		return func() error {
			_, err := LoadGMission(strings.NewReader(tasks), strings.NewReader(workers), GMissionOptions{})
			return err
		}
	}
	cases := []struct {
		name   string
		decode func() error
		want   error
		line   int
	}{
		{"unknown kind", problem(center + "bogus,0,0,0,0,0,0\n"), ErrBadCSV, 2},
		{"bad center ID", problem("center,x,,1,2,,\n"), ErrBadCSV, 1},
		{"bad speed", problem(center + "meta,fast,,,,euclidean,\n"), ErrBadCSV, 2},
		{"zero speed", problem("meta,0,,,,euclidean,\n" + center), ErrBadCSV, 1},
		{"unknown metric", problem("meta,5,,,,warp,\n"), ErrBadCSV, 1},
		{"duplicate center", problem(center + center), ErrBadCSV, 2},
		{"unknown center", problem(center + "point,7,0,1,2,,\n"), ErrBadCSV, 2},
		{"bad point x", problem(center + "point,0,0,?,2,,\n"), ErrBadCSV, 2},
		{"bad expiry", problem(center + point + "task,0,1,0,,soon,1\n"), ErrBadCSV, 3},
		{"unknown point", problem(center + point + "task,0,1,9,,1,1\n"), ErrBadCSV, 3},
		{"bad maxDP", problem(center + "worker,0,0,0,0,two,\n"), ErrBadCSV, 2},
		{"bad worker speed", problem(center + "worker,0,0,0,0,2,fast\n"), ErrBadCSV, 2},
		{"short record", problem(center + point + "task,0,1\n"), ErrBadCSV, 3},
		{"bare quote", problem(center + "point,0,0,1\"x,2,,\n"), ErrBadCSV, 2},
		{"problem read error", func() error {
			_, err := ReadCSV(io.MultiReader(strings.NewReader(center+point), iotest.ErrReader(errRead)))
			return err
		}, ErrBadCSV, 3},

		{"empty routes", routes(""), ErrAssignmentCSV, 1},
		{"bad header", routes("centre" + header[6:]), ErrAssignmentCSV, 1},
		{"bad stop", routes(header + row(c, w, 0, pt) + "0,0,first,0,0,1,1\n"), ErrAssignmentCSV, 3},
		{"negative stop", routes(header + row(c, w, -1, pt)), ErrAssignmentCSV, 2},
		{"unknown worker", routes(header + row(c, w, 0, pt) + row(c, 999, 0, pt)), ErrAssignmentCSV, 3},
		{"duplicate stop", routes(header + row(c, w, 0, pt) + row(c, w, 0, pt)), ErrAssignmentCSV, 3},
		{"missing earlier stop", routes(header + row(c, w, 0, pt) + row(c, w, 2, pt)), ErrAssignmentCSV, 3},
		{"short route row", routes(header + "1,2,3\n"), ErrAssignmentCSV, 2},

		{"bad task coordinate", gmission(gmTasks+"2,zz,1,1,1\n", "0,0,0,1\n"), ErrBadGMission, 3},
		{"short task row", gmission("1,2,3\n", "0,0,0,1\n"), ErrBadGMission, 1},
		{"bad worker maxdp", gmission(gmTasks, "0,0,0,1\n1,1,1,zz\n"), ErrBadGMission, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.decode()
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("line %d", tc.line)) {
				t.Errorf("err = %v, want it to name line %d", err, tc.line)
			}
		})
	}
	// A read error stays wrapped, so the server can map a body over its
	// limit (*http.MaxBytesError) to 413.
	_, err = ReadCSV(io.MultiReader(strings.NewReader(center), iotest.ErrReader(errRead)))
	if !errors.Is(err, errRead) {
		t.Errorf("read error: err = %v, want it to wrap %v", err, errRead)
	}
}
