package obs

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"time"
)

// TraceRing is a bounded, concurrency-safe ring of recent traces, served by
// the HTTP service at GET /debug/traces. When full, adding evicts the
// oldest trace.
//
// The ring keeps each trace compact: its Name and Start as given, and its
// spans encoded into one pointer-free byte slice (see encodeSpans). The
// heap of a small served request sits at the GC's minimum goal, so every
// retained byte brings the next GC cycle sooner, and every retained
// pointer is scanned on each cycle; a byte slice holds none. Traces are
// decoded back only when read, outside the ring's lock.
type TraceRing struct {
	mu    sync.Mutex
	buf   []retainedTrace
	next  int
	count uint64
}

// retainedTrace is one ring slot: a trace's identity plus its encoded
// spans.
type retainedTrace struct {
	name  string
	start time.Time
	spans []byte
}

// NewTraceRing returns a ring holding up to capacity traces; capacity <= 0
// selects the default of 32.
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = 32
	}
	return &TraceRing{buf: make([]retainedTrace, 0, capacity)}
}

// Add appends a trace, evicting the oldest when the ring is full. The
// spans are encoded before the ring's lock is taken, into one allocation
// of exactly the encoded size; t itself is not retained.
func (r *TraceRing) Add(t Trace) {
	rt := retainedTrace{name: t.Name, start: t.Start, spans: encodeSpans(t.Spans)}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.count++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rt)
		return
	}
	r.buf[r.next] = rt
	r.next = (r.next + 1) % len(r.buf)
}

// Snapshot returns the retained traces, newest first. Each is
// reflect.DeepEqual to the Trace that was added.
func (r *TraceRing) Snapshot() []Trace { return r.Recent(-1) }

// Recent returns the n most recently added traces, newest first, decoding
// only those; a negative n, or one above the number retained, returns
// every retained trace.
func (r *TraceRing) Recent(n int) []Trace {
	r.mu.Lock()
	if n < 0 || n > len(r.buf) {
		n = len(r.buf)
	}
	slots := make([]retainedTrace, n)
	for i := range slots {
		// Walk backwards from the most recently written slot.
		slots[i] = r.buf[(r.next-1-i+2*len(r.buf))%len(r.buf)]
	}
	r.mu.Unlock()
	out := make([]Trace, n)
	for i, s := range slots {
		out[i] = Trace{Name: s.name, Start: s.start, Spans: decodeSpans(s.spans)}
	}
	return out
}

// Total returns how many traces have ever been added, including evicted
// ones.
func (r *TraceRing) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// The encoding of a trace's spans, all integers as varints (signed ones
// zigzag, as encoding/binary writes them):
//
//	names     count, then each as length and bytes: the trace's distinct
//	          span names and attribute keys, in order of first use
//	spans     0 for a nil slice, and then nothing follows; else len+1
//	attrs     the total attribute count, so decoding allocates once
//	per span  ID, Parent, name index, Start minus the previous span's
//	          Start (0 before the first), Duration, then 0 for nil Attrs
//	          or len+1, and per attribute its key index and its value as
//	          length and raw bytes
//
// The name table lives in each trace's own buffer, so nothing is shared
// between traces or grows with the number of names a server ever sees.
// Values are never interned: they carry job IDs and error text.

// encodeSpans encodes spans into one exactly sized slice: a first pass
// builds the name table and counts the bytes, a second writes them.
func encodeSpans(spans []SpanRecord) []byte {
	// The names are the instrumentation sites' constants, so a trace has a
	// dozen or so and a scan finds them; byName takes over past maxScan.
	var scan [maxScan]string
	names := scan[:0]
	var byName map[string]int
	index := func(s string) uint64 {
		if byName == nil {
			for i, n := range names {
				if n == s {
					return uint64(i)
				}
			}
		} else if i, ok := byName[s]; ok {
			return uint64(i)
		}
		names = append(names, s)
		i := len(names) - 1
		if i == maxScan {
			byName = make(map[string]int, 2*maxScan)
			for j, n := range names {
				byName[n] = j
			}
		} else if byName != nil {
			byName[s] = i
		}
		return uint64(i)
	}
	var w spanWriter
	w.spans(spans, index)
	w.names(names)
	w = spanWriter{buf: make([]byte, 0, w.n)}
	w.names(names)
	w.spans(spans, index)
	return w.buf
}

const maxScan = 32

// spanWriter appends the encoding to buf or, while buf is nil, only counts
// its length in n.
type spanWriter struct {
	buf []byte
	n   int
}

func (w *spanWriter) uvarint(v uint64) {
	if w.buf == nil {
		w.n += (bits.Len64(v|1) + 6) / 7
		return
	}
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *spanWriter) varint(v int64) { w.uvarint(uint64(v<<1) ^ uint64(v>>63)) }

func (w *spanWriter) text(s string) {
	w.uvarint(uint64(len(s)))
	if w.buf == nil {
		w.n += len(s)
		return
	}
	w.buf = append(w.buf, s...)
}

func (w *spanWriter) names(names []string) {
	w.uvarint(uint64(len(names)))
	for _, s := range names {
		w.text(s)
	}
}

// spans writes the spans, numbering names with index.
func (w *spanWriter) spans(spans []SpanRecord, index func(string) uint64) {
	if spans == nil {
		w.uvarint(0)
		return
	}
	w.uvarint(uint64(len(spans)) + 1)
	attrs := 0
	for _, s := range spans {
		attrs += len(s.Attrs)
	}
	w.uvarint(uint64(attrs))
	var prev time.Duration
	for _, s := range spans {
		w.uvarint(s.ID)
		w.uvarint(s.Parent)
		w.uvarint(index(s.Name))
		w.varint(int64(s.Start - prev))
		prev = s.Start
		w.varint(int64(s.Duration))
		if s.Attrs == nil {
			w.uvarint(0)
			continue
		}
		w.uvarint(uint64(len(s.Attrs)) + 1)
		for _, a := range s.Attrs {
			w.uvarint(index(a.Key))
			w.text(a.Value)
		}
	}
}

// decodeSpans inverts encodeSpans. Every name and value of the result is a
// substring of one string copy of buf, so decoding allocates at most four
// times whatever the trace's size.
func decodeSpans(buf []byte) []SpanRecord {
	d := spanReader{buf: buf, str: string(buf)}
	names := make([]string, d.uvarint())
	for i := range names {
		names[i] = d.text()
	}
	n := d.uvarint()
	if n == 0 {
		return nil
	}
	spans := make([]SpanRecord, n-1)
	attrs := make([]Attr, d.uvarint())
	var prev time.Duration
	for i := range spans {
		s := &spans[i]
		s.ID = d.uvarint()
		s.Parent = d.uvarint()
		s.Name = names[d.uvarint()]
		prev += time.Duration(d.varint())
		s.Start = prev
		s.Duration = time.Duration(d.varint())
		if k := int(d.uvarint()); k > 0 {
			s.Attrs, attrs = attrs[:k-1:k-1], attrs[k-1:]
			for j := range s.Attrs {
				s.Attrs[j] = Attr{Key: names[d.uvarint()], Value: d.text()}
			}
		}
	}
	return spans
}

// spanReader walks an encoding; str is buf as a string.
type spanReader struct {
	buf []byte
	str string
	off int
}

func (d *spanReader) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		panic("obs: corrupt retained trace")
	}
	d.off += n
	return v
}

func (d *spanReader) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *spanReader) text() string {
	n := int(d.uvarint())
	s := d.str[d.off : d.off+n]
	d.off += n
	return s
}
