package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// This file converts collected traces to and from the Chrome trace_event
// JSON format, loadable in chrome://tracing and https://ui.perfetto.dev.
// Each Trace becomes one "process" (pid); spans become "X" complete events
// with microsecond timestamps. Chrome's viewer nests events on one thread
// track by time containment, which breaks when sibling spans overlap (our
// per-center solves run concurrently), so overlapping siblings are assigned
// distinct lanes (tids) via greedy interval partitioning: a child either
// inherits its parent's lane or, when an earlier sibling still occupies it,
// opens a new one. Span identity (id/parent) rides in each event's args so
// ReadChromeTrace can rebuild the exact span tree for `fta trace`.

// chromeEvent is one entry of the trace_event "traceEvents" array.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeFile is the top-level object form of the trace_event format.
type chromeFile struct {
	TraceEvents []chromeEvent  `json:"traceEvents"`
	DisplayUnit string         `json:"displayTimeUnit"`
	Metadata    map[string]any `json:"otherData,omitempty"`
}

// WriteChromeTrace writes traces as Chrome trace_event JSON to w. The file
// loads directly in chrome://tracing and Perfetto; each trace appears as
// its own named process with concurrent spans on separate thread lanes.
// A span's identity rides in its event args as "id" and "parent", so an
// attribute with either key is an error and nothing is written.
func WriteChromeTrace(w io.Writer, traces ...Trace) error {
	file := chromeFile{DisplayUnit: "ms", TraceEvents: []chromeEvent{}}
	for pi, tr := range traces {
		pid := pi + 1
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: "process_name", Phase: "M", PID: pid, TID: 0,
			Args: map[string]any{"name": tr.Name},
		})
		lanes := assignLanes(tr.Spans)
		for i, s := range tr.Spans {
			dur := float64(s.Duration.Nanoseconds()) / 1e3
			args := map[string]any{"id": s.ID, "parent": s.Parent}
			for _, a := range s.Attrs {
				if a.Key == "id" || a.Key == "parent" {
					return fmt.Errorf("write chrome trace: span %q (id %d) has attribute %q, a key reserved for span identity",
						s.Name, s.ID, a.Key)
				}
				args[a.Key] = a.Value
			}
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name:  s.Name,
				Phase: "X",
				TS:    float64(s.Start.Nanoseconds()) / 1e3,
				Dur:   &dur,
				PID:   pid,
				TID:   lanes[i],
				Args:  args,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}

// assignLanes maps each span (by index into spans, which must be sorted by
// start) to a Chrome thread lane so every lane holds a laminar family:
// spans on one lane are pairwise nested (ancestor/descendant) or time
// disjoint, which is exactly what Chrome's per-thread nesting renders
// correctly. Children prefer their parent's lane — Chrome then draws them
// nested under it — and spill to other lanes when concurrent siblings
// collide.
func assignLanes(spans []SpanRecord) []int {
	lanes := make([]int, len(spans))
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	isAncestor := func(anc, i int) bool {
		id := spans[anc].ID
		for p := spans[i].Parent; p != 0; {
			if p == id {
				return true
			}
			pi, ok := byID[p]
			if !ok {
				return false
			}
			p = spans[pi].Parent
		}
		return false
	}
	// laneSpans[l] lists the span indices already on lane l+1 (lane 0 is
	// left to metadata rows). A candidate fits a lane when every occupant
	// is either an ancestor of it or disjoint in time.
	var laneSpans [][]int
	fits := func(i, l int) bool {
		s := spans[i]
		for _, j := range laneSpans[l] {
			o := spans[j]
			disjoint := o.End() <= s.Start || s.End() <= o.Start
			if !disjoint && !isAncestor(j, i) {
				return false
			}
		}
		return true
	}
	place := func(i, preferred int) {
		if preferred >= 0 && preferred < len(laneSpans) && fits(i, preferred) {
			lanes[i] = preferred + 1
			laneSpans[preferred] = append(laneSpans[preferred], i)
			return
		}
		for l := range laneSpans {
			if fits(i, l) {
				lanes[i] = l + 1
				laneSpans[l] = append(laneSpans[l], i)
				return
			}
		}
		laneSpans = append(laneSpans, []int{i})
		lanes[i] = len(laneSpans)
	}
	// Place spans in depth order so parents get lanes before their
	// children; within a depth the sorted start order is kept.
	depth := make([]int, len(spans))
	var depthOf func(i int) int
	depthOf = func(i int) int {
		if depth[i] != 0 {
			return depth[i]
		}
		p, ok := byID[spans[i].Parent]
		if spans[i].Parent == 0 || !ok || p == i {
			depth[i] = 1
		} else {
			depth[i] = depthOf(p) + 1
		}
		return depth[i]
	}
	for i := range spans {
		depthOf(i)
	}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return depth[order[a]] < depth[order[b]] })
	for _, i := range order {
		pref := -1
		if p, ok := byID[spans[i].Parent]; ok && spans[i].Parent != 0 {
			pref = lanes[p] - 1
		}
		place(i, pref)
	}
	return lanes
}

// ReadChromeTrace parses a file written by WriteChromeTrace and rebuilds
// the traces, grouped by pid, with span identity restored from event args.
// It accepts only files produced by this package (it relies on the id and
// parent args), not arbitrary Chrome traces.
func ReadChromeTrace(r io.Reader) ([]Trace, error) {
	var file chromeFile
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("parse chrome trace: %w", err)
	}
	names := make(map[int]string)
	spans := make(map[int][]SpanRecord)
	seen := make(map[int]bool)
	var pids []int
	note := func(pid int) {
		if !seen[pid] {
			seen[pid] = true
			pids = append(pids, pid)
		}
	}
	for _, ev := range file.TraceEvents {
		switch ev.Phase {
		case "M":
			if ev.Name == "process_name" {
				if n, ok := ev.Args["name"].(string); ok {
					note(ev.PID)
					names[ev.PID] = n
				}
			}
		case "X":
			rec := SpanRecord{Name: ev.Name}
			rec.Start = durationFromMicros(ev.TS)
			if ev.Dur != nil {
				rec.Duration = durationFromMicros(*ev.Dur)
			}
			rec.ID = uintArg(ev.Args, "id")
			rec.Parent = uintArg(ev.Args, "parent")
			for k, v := range ev.Args {
				if k == "id" || k == "parent" {
					continue
				}
				if sv, ok := v.(string); ok {
					rec.Attrs = append(rec.Attrs, Attr{Key: k, Value: sv})
				}
			}
			sort.Slice(rec.Attrs, func(i, j int) bool { return rec.Attrs[i].Key < rec.Attrs[j].Key })
			note(ev.PID)
			spans[ev.PID] = append(spans[ev.PID], rec)
		}
	}
	if len(pids) == 0 {
		return nil, fmt.Errorf("parse chrome trace: no trace events found")
	}
	sort.Ints(pids)
	out := make([]Trace, 0, len(pids))
	for _, pid := range pids {
		ss := spans[pid]
		sortSpans(ss)
		out = append(out, Trace{Name: names[pid], Spans: ss})
	}
	return out, nil
}

// durationFromMicros converts a trace_event microsecond value to a
// duration, rounding to the nearest nanosecond.
func durationFromMicros(us float64) time.Duration {
	return time.Duration(us * 1e3)
}

// uintArg reads a numeric event arg as uint64; JSON numbers decode as
// float64.
func uintArg(args map[string]any, key string) uint64 {
	if f, ok := args[key].(float64); ok {
		return uint64(f)
	}
	return 0
}
