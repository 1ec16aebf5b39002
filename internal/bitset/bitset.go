// Package bitset provides a small fixed-capacity bit set used to represent
// delivery-point sets compactly and test disjointness in O(words).
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

// Set is a bit set over non-negative integers. The zero value is an empty
// set with zero capacity; use New to pre-size.
type Set []uint64

// New returns a set able to hold values in [0, n) without reallocation.
func New(n int) Set {
	if n <= 0 {
		return Set{}
	}
	return make(Set, (n+63)/64)
}

// Of returns a set containing exactly the given values.
func Of(values ...int) Set {
	var s Set
	for _, v := range values {
		s = s.With(v)
	}
	return s
}

// With returns a set with bit i added, growing if needed. The receiver may be
// modified and must be replaced by the result.
func (s Set) With(i int) Set {
	w := i / 64
	for len(s) <= w {
		s = append(s, 0)
	}
	s[w] |= 1 << uint(i%64)
	return s
}

// Has reports whether bit i is present.
func (s Set) Has(i int) bool {
	w := i / 64
	return w < len(s) && s[w]&(1<<uint(i%64)) != 0
}

// Intersects reports whether s and t share any bit.
func (s Set) Intersects(t Set) bool {
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	for i := 0; i < n; i++ {
		if s[i]&t[i] != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (s Set) Count() int {
	var n int
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Values returns the set bits in ascending order.
func (s Set) Values() []int {
	var out []int
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &= w - 1
		}
	}
	return out
}

// String renders the set as "{1, 5, 9}".
func (s Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, v := range s.Values() {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(strconv.Itoa(v))
	}
	sb.WriteByte('}')
	return sb.String()
}
