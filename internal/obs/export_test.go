package obs

// RetainedBytes returns the bytes r's slots point to: each retained
// trace's encoded spans, by capacity, and its name.
func RetainedBytes(r *TraceRing) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.buf {
		n += cap(s.spans) + len(s.name)
	}
	return n
}

// ExactlySized reports whether every retained encoding fills its
// allocation.
func ExactlySized(r *TraceRing) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.buf {
		if cap(s.spans) != len(s.spans) {
			return false
		}
	}
	return true
}
