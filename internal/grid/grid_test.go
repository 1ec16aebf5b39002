package grid

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"fairtask/internal/geo"
)

// bruteBalls is the oracle: every point's ball by a scan of the whole set,
// with Neighborhoods' test.
func bruteBalls(pts []geo.Point, r float64) [][]int {
	out := make([][]int, len(pts))
	e := geo.Euclidean{}
	for i, p := range pts {
		for j, q := range pts {
			if e.Distance(p, q) <= r {
				out[i] = append(out[i], j)
			}
		}
	}
	return out
}

// sameBalls reports whether two sets of lists hold the same indices in the
// same order, treating nil and empty lists alike.
func sameBalls(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestWithinSmall pins one small ball: the points within 1.5 of the origin.
func TestWithinSmall(t *testing.T) {
	pts := []geo.Point{
		geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(0, 1), geo.Pt(5, 5),
	}
	got := Neighborhoods(pts, 1.5)[0]
	if want := []int{0, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("ball of the origin = %v, want %v", got, want)
	}
}

func TestWithinEdgeCases(t *testing.T) {
	if got := Neighborhoods(nil, 10); len(got) != 0 {
		t.Errorf("empty set returned %v", got)
	}
	one := []geo.Point{geo.Pt(1, 1)}
	if got := Neighborhoods(one, 0); len(got) != 1 || !slices.Equal(got[0], []int{0}) {
		t.Errorf("zero radius on a single point = %v, want [[0]]", got)
	}
	for _, r := range []float64{-1, math.NaN()} {
		if got := Neighborhoods(one, r); len(got) != 1 || len(got[0]) != 0 {
			t.Errorf("radius %v returned %v, want one empty list", r, got)
		}
	}
}

// TestNeighborhoodsShareOneArray pins the lists' layout: consecutive,
// capacity-limited windows into one backing array, so an append to one list
// copies it instead of writing into the next.
func TestNeighborhoodsShareOneArray(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]geo.Point, 200)
	for i := range pts {
		pts[i] = geo.Pt(rng.Float64()*20, rng.Float64()*20)
	}
	nb := Neighborhoods(pts, 2)
	addr := func(l []int) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(l))) }
	for i, l := range nb {
		if len(l) == 0 || cap(l) != len(l) {
			t.Fatalf("list %d: len %d, cap %d", i, len(l), cap(l))
		}
		if prev := nb[max(i-1, 0)]; i > 0 && addr(l) != addr(prev)+uintptr(len(prev))*unsafe.Sizeof(0) {
			t.Fatalf("list %d does not follow list %d in the backing array", i, i-1)
		}
	}
	if grown := append(nb[0], -1); addr(grown) == addr(nb[0]) || nb[1][0] == -1 {
		t.Fatal("append to a list wrote into the backing array")
	}
}

// TestWithinMatchesBruteForce is the property test: every ball equals a
// scan of the whole set, for random points and radii and on the shapes
// where a cell index can go wrong: collinear points on cell boundaries,
// repeated locations, pairs exactly r apart, a radius at least the
// extent, and sets of zero and one point.
func TestWithinMatchesBruteForce(t *testing.T) {
	f := func(seed int64, n uint8, r uint8) bool {
		count := int(n%50) + 1
		rng := rand.New(rand.NewSource(seed))
		pts := make([]geo.Point, count)
		for i := range pts {
			pts[i] = geo.Pt(rng.Float64()*20-10, rng.Float64()*20-10)
		}
		radius := float64(r%8) + float64(r%3)/4
		return sameBalls(Neighborhoods(pts, radius), bruteBalls(pts, radius))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}

	rng := rand.New(rand.NewSource(7))
	random := func(n int, side float64) []geo.Point {
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Pt(rng.Float64()*side, rng.Float64()*side)
		}
		return pts
	}
	var collinear, diagonal, lattice, repeated []geo.Point
	for i := 0; i < 40; i++ {
		collinear = append(collinear, geo.Pt(float64(i)*0.5, 3))
		diagonal = append(diagonal, geo.Pt(float64(i)*0.75, float64(i)*0.75))
		lattice = append(lattice, geo.Pt(float64(i%8)*2, float64(i/8)*2))
	}
	for i := 0; i < 60; i++ {
		repeated = append(repeated, geo.Pt(float64(rng.Intn(5)), float64(rng.Intn(5))))
	}
	cases := []struct {
		name string
		pts  []geo.Point
		r    []float64
	}{
		{"random", random(300, 30), []float64{0.5, 2, 3.7}},
		{"clustered", random(200, 1), []float64{0.05, 0.3}},
		{"collinear", collinear, []float64{0.5, 1, 2.5}},
		{"diagonal", diagonal, []float64{0.75, math.Sqrt(2) * 0.75, 1.1}},
		{"lattice exactly r apart", lattice, []float64{2, math.Sqrt(8)}},
		{"repeated locations", repeated, []float64{0, 1, 1.5}},
		{"radius past the extent", random(50, 4), []float64{4 * math.Sqrt2, 100, 1e300, math.Inf(1)}},
		{"one point", random(1, 10), []float64{0, 1}},
		{"no point", nil, []float64{1}},
	}
	for _, tc := range cases {
		for _, r := range tc.r {
			if !sameBalls(Neighborhoods(tc.pts, r), bruteBalls(tc.pts, r)) {
				t.Errorf("%s, r=%v: balls differ from the scan", tc.name, r)
			}
		}
	}
}

func TestNeighborhoods(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(10, 10)}
	nb := Neighborhoods(pts, 1.5)
	if len(nb) != 3 {
		t.Fatalf("neighborhood count = %d", len(nb))
	}
	if !slices.Equal(nb[0], []int{0, 1}) {
		t.Errorf("nb[0] = %v, want [0 1]", nb[0])
	}
	if !slices.Equal(nb[2], []int{2}) {
		t.Errorf("nb[2] = %v, want [2]", nb[2])
	}
	// Symmetry: j in nb[i] iff i in nb[j].
	for i := range nb {
		for _, j := range nb[i] {
			if !slices.Contains(nb[j], i) {
				t.Errorf("asymmetric neighborhood: %d in nb[%d] but not vice versa", j, i)
			}
		}
	}
}

// TestWithinTinyCellLargeExtent is the cell-key overflow regression test.
// A 1e-6 radius, and so cell size, over a ~2147 km extent gives cell
// coordinates beyond int32 range; Go's float-to-int conversion of
// out-of-range values is implementation-defined (0x80000000 on amd64), so
// with 32-bit keys a search range that crossed the int32 limit came back
// with its high corner below its low one, and the ball of a point beside
// the limit held nothing, not even the point. 64-bit keys make the
// coordinates exact.
func TestWithinTinyCellLargeExtent(t *testing.T) {
	pts := []geo.Point{
		geo.Pt(0, 0),
		geo.Pt(2147.4836, 0),      // cell ~2.1474836e9, inside int32
		geo.Pt(2147.4836475, 0),   // cell 2^31-1; its r-square reaches 2^31
		geo.Pt(2147.4837, 0),      // cell ~2.1474837e9, beyond int32
		geo.Pt(2147.4837+5e-7, 0), // 5e-7 from the previous point
	}
	nb := Neighborhoods(pts, 1e-6)
	want := [][]int{{0}, {1}, {2}, {3, 4}, {3, 4}}
	if !sameBalls(nb, want) {
		t.Fatalf("Neighborhoods = %v, want %v", nb, want)
	}
}
