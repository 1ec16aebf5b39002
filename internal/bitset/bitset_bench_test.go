package bitset

import "testing"

func BenchmarkIntersects(b *testing.B) {
	x := New(512)
	y := New(512)
	for i := 0; i < 512; i += 7 {
		x = x.With(i)
	}
	for i := 0; i < 512; i += 11 {
		y = y.With(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Intersects(y)
	}
}

func BenchmarkValues(b *testing.B) {
	s := New(256)
	for i := 0; i < 256; i += 3 {
		s = s.With(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Values()
	}
}
