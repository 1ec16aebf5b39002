package grid

import (
	"math/rand"
	"testing"

	"fairtask/internal/geo"
)

func benchPoints(n int) []geo.Point {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	return pts
}

// BenchmarkNeighborhoods builds the ε-balls of 5,000 points spread uniformly
// over a 100 × 100 square at radius 2, about six points a ball.
func BenchmarkNeighborhoods(b *testing.B) {
	pts := benchPoints(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Neighborhoods(pts, 2)
	}
}
