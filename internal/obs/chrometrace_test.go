package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// buildTestTrace makes a deterministic trace with overlapping siblings:
//
//	assign [0,100ms]
//	├── center.solve A [1,40ms]   (overlaps B)
//	│   └── round [2,10ms]
//	└── center.solve B [5,60ms]
func buildTestTrace() Trace {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return Trace{
		Name: "fta assign",
		Spans: []SpanRecord{
			{ID: 1, Name: "assign", Start: 0, Duration: ms(100)},
			{ID: 2, Parent: 1, Name: "center.solve", Start: ms(1), Duration: ms(39),
				Attrs: []Attr{{Key: "center", Value: "A"}}},
			{ID: 3, Parent: 2, Name: "round", Start: ms(2), Duration: ms(8)},
			{ID: 4, Parent: 1, Name: "center.solve", Start: ms(5), Duration: ms(55),
				Attrs: []Attr{{Key: "center", Value: "B"}}},
		},
	}
}

func TestWriteChromeTraceFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, buildTestTrace()); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DisplayUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if file.DisplayUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", file.DisplayUnit)
	}
	if len(file.TraceEvents) != 5 { // 1 metadata + 4 spans
		t.Fatalf("got %d events, want 5", len(file.TraceEvents))
	}
	meta := file.TraceEvents[0]
	if meta["ph"] != "M" || meta["name"] != "process_name" {
		t.Fatalf("first event must be process_name metadata, got %+v", meta)
	}
	for _, ev := range file.TraceEvents[1:] {
		if ev["ph"] != "X" {
			t.Errorf("span event phase = %v, want X", ev["ph"])
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Errorf("event missing numeric ts: %+v", ev)
		}
		if _, ok := ev["dur"].(float64); !ok {
			t.Errorf("event missing numeric dur: %+v", ev)
		}
		args, ok := ev["args"].(map[string]any)
		if !ok {
			t.Fatalf("event missing args: %+v", ev)
		}
		if _, ok := args["id"].(float64); !ok {
			t.Errorf("args missing id: %+v", args)
		}
	}
	// Microsecond conversion: the assign span lasts 100ms = 100000us.
	var assignDur float64
	for _, ev := range file.TraceEvents[1:] {
		if ev["name"] == "assign" {
			assignDur = ev["dur"].(float64)
		}
	}
	if assignDur != 100000 {
		t.Errorf("assign dur = %v us, want 100000", assignDur)
	}
}

func TestChromeTraceLanesSeparateOverlaps(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, buildTestTrace()); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	tids := map[string][]int{}
	for _, ev := range file.TraceEvents {
		if ev.Phase == "X" {
			key := ev.Name
			if c, ok := ev.Args["center"].(string); ok {
				key += ":" + c
			}
			tids[key] = append(tids[key], ev.TID)
		}
	}
	a, b := tids["center.solve:A"][0], tids["center.solve:B"][0]
	if a == b {
		t.Fatalf("overlapping sibling solves share tid %d; must differ", a)
	}
	// The nested round should sit on its parent's lane so Chrome nests it.
	if r := tids["round"][0]; r != a {
		t.Errorf("round tid = %d, want parent's %d", r, a)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	orig := buildTestTrace()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d traces, want 1", len(got))
	}
	tr := got[0]
	if tr.Name != orig.Name {
		t.Errorf("name = %q, want %q", tr.Name, orig.Name)
	}
	if len(tr.Spans) != len(orig.Spans) {
		t.Fatalf("got %d spans, want %d", len(tr.Spans), len(orig.Spans))
	}
	for i, s := range tr.Spans {
		o := orig.Spans[i]
		if s.ID != o.ID || s.Parent != o.Parent || s.Name != o.Name {
			t.Errorf("span %d identity = %d/%d/%q, want %d/%d/%q",
				i, s.ID, s.Parent, s.Name, o.ID, o.Parent, o.Name)
		}
		if s.Start != o.Start || s.Duration != o.Duration {
			t.Errorf("span %d timing = %v/%v, want %v/%v", i, s.Start, s.Duration, o.Start, o.Duration)
		}
		if o.Attr("center") != s.Attr("center") {
			t.Errorf("span %d center = %q, want %q", i, s.Attr("center"), o.Attr("center"))
		}
	}
}

// TestChromeTraceJobRoundTrip writes a trace shaped like a job's through
// the Chrome format: the root's job-ID attribute must come back beside the
// root's own ID, so the children still point at it and Breakdown still
// subtracts them from the root.
func TestChromeTraceJobRoundTrip(t *testing.T) {
	submitted := time.Unix(1700000000, 0)
	tr := NewTracerAt(submitted)
	root := tr.Root("job")
	root.SetAttr("job", "d1f0ab12e34c5678")
	tr.RecordRange(root, "job.queued", submitted, submitted.Add(3*time.Millisecond))
	root.Child("job.run").End()
	root.End()
	orig := tr.Collect("job d1f0ab12e34c5678")

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Spans) != 3 {
		t.Fatalf("read back %+v, want one trace of 3 spans", got)
	}
	var rootID uint64
	for _, s := range got[0].Spans {
		if s.Name == "job" {
			rootID = s.ID
			if s.Parent != 0 || s.Attr("job") != "d1f0ab12e34c5678" {
				t.Errorf("job root = %+v, want a root with its job attribute", s)
			}
		}
	}
	if rootID == 0 {
		t.Fatalf("job root lost its ID: %+v", got[0].Spans)
	}
	for _, s := range got[0].Spans {
		if s.Name != "job" && s.Parent != rootID {
			t.Errorf("%s parent = %d, want the job root %d", s.Name, s.Parent, rootID)
		}
	}
	rootSelf := func(tr Trace) time.Duration {
		for _, ph := range Breakdown(tr) {
			if ph.Name == "job" {
				return ph.Self
			}
		}
		return -1
	}
	if want, got := rootSelf(orig), rootSelf(got[0]); got < 0 || got > want+time.Microsecond {
		t.Errorf("job root self time %v after the round trip, want %v", got, want)
	}
}

// TestWriteChromeTraceReservedKeys: an attribute may not take the keys
// that carry span identity in the export.
func TestWriteChromeTraceReservedKeys(t *testing.T) {
	for _, key := range []string{"id", "parent"} {
		tr := buildTestTrace()
		tr.Spans[2].Attrs = []Attr{{Key: key, Value: "7"}}
		var buf bytes.Buffer
		err := WriteChromeTrace(&buf, tr)
		if err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("attribute %q: err = %v, want a reserved-key error", key, err)
		}
		if buf.Len() != 0 {
			t.Errorf("attribute %q: wrote %d bytes, want none", key, buf.Len())
		}
	}
}

func TestChromeTraceMultipleTraces(t *testing.T) {
	t1, t2 := buildTestTrace(), buildTestTrace()
	t2.Name = "POST /solve"
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, t1, t2); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d traces, want 2", len(got))
	}
	if got[0].Name != "fta assign" || got[1].Name != "POST /solve" {
		t.Errorf("trace names = %q, %q", got[0].Name, got[1].Name)
	}
}

func TestReadChromeTraceErrors(t *testing.T) {
	if _, err := ReadChromeTrace(strings.NewReader("not json")); err == nil {
		t.Fatal("want error for invalid JSON")
	}
	if _, err := ReadChromeTrace(strings.NewReader(`{"traceEvents":[]}`)); err == nil {
		t.Fatal("want error for empty trace")
	}
}
