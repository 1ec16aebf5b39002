package bitset

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(10)
	if s.Count() != 0 {
		t.Error("new set should be empty")
	}
	s = s.With(3).With(7).With(64)
	if !s.Has(3) || !s.Has(7) || !s.Has(64) {
		t.Error("With did not set bits")
	}
	if s.Has(4) || s.Has(63) {
		t.Error("unexpected bits set")
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d, want 3", s.Count())
	}
}

func TestOf(t *testing.T) {
	s := Of(1, 5, 9)
	got := s.Values()
	want := []int{1, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("Values = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values = %v, want %v", got, want)
		}
	}
	if s.String() != "{1, 5, 9}" {
		t.Errorf("String = %q", s.String())
	}
}

func TestIntersects(t *testing.T) {
	a := Of(1, 2, 3)
	b := Of(3, 4)
	c := Of(4, 5, 200)
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("overlapping sets reported disjoint")
	}
	if a.Intersects(c) || c.Intersects(a) {
		t.Error("disjoint sets reported overlapping")
	}
	var empty Set
	if a.Intersects(empty) || empty.Intersects(a) {
		t.Error("empty set intersects nothing")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Of(1, 2)
	b := a.Clone()
	b = b.With(3)
	if a.Has(3) {
		t.Error("Clone shares storage")
	}
}

// Property: Values returns exactly the inserted distinct values, sorted.
func TestValuesRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		var s Set
		uniq := map[int]bool{}
		for _, v := range raw {
			i := int(v % 512)
			s = s.With(i)
			uniq[i] = true
		}
		want := make([]int, 0, len(uniq))
		for v := range uniq {
			want = append(want, v)
		}
		sort.Ints(want)
		got := s.Values()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return s.Count() == len(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a.Intersects(b) iff the value sets share an element.
func TestIntersectsAgreesWithValues(t *testing.T) {
	f := func(ra, rb []uint8) bool {
		var a, b Set
		ma := map[int]bool{}
		for _, v := range ra {
			a = a.With(int(v))
			ma[int(v)] = true
		}
		shared := false
		for _, v := range rb {
			b = b.With(int(v))
			if ma[int(v)] {
				shared = true
			}
		}
		return a.Intersects(b) == shared
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
