package grid

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fairtask/internal/geo"
)

func TestWithinSmall(t *testing.T) {
	pts := []geo.Point{
		geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(0, 1), geo.Pt(5, 5),
	}
	ix := New(pts, 1)
	got := ix.Within(geo.Pt(0, 0), 1.5, nil)
	sort.Ints(got)
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("Within = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Within = %v, want %v", got, want)
		}
	}
}

func TestWithinEdgeCases(t *testing.T) {
	ix := New(nil, 1)
	if got := ix.Within(geo.Pt(0, 0), 10, nil); len(got) != 0 {
		t.Errorf("empty index returned %v", got)
	}
	ix = New([]geo.Point{geo.Pt(1, 1)}, 0) // cell size defaults
	if got := ix.Within(geo.Pt(1, 1), 0, nil); len(got) != 1 {
		t.Errorf("zero-radius query on exact point = %v, want the point", got)
	}
	if got := ix.Within(geo.Pt(1, 1), -1, nil); len(got) != 0 {
		t.Errorf("negative radius returned %v", got)
	}
}

func TestWithinReusesDst(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(0.5, 0)}
	ix := New(pts, 1)
	dst := make([]int, 0, 8)
	out := ix.Within(geo.Pt(0, 0), 1, dst)
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	if cap(out) != cap(dst) {
		t.Error("Within reallocated despite sufficient capacity")
	}
}

// Property: Within agrees with a brute-force scan for random points, radii
// and cell sizes.
func TestWithinMatchesBruteForce(t *testing.T) {
	f := func(seed int64, n uint8, cell uint8, r uint8) bool {
		count := int(n%50) + 1
		rng := rand.New(rand.NewSource(seed))
		pts := make([]geo.Point, count)
		for i := range pts {
			pts[i] = geo.Pt(rng.Float64()*20-10, rng.Float64()*20-10)
		}
		cellSize := float64(cell%5)/2 + 0.5
		radius := float64(r % 8)
		ix := New(pts, cellSize)
		q := geo.Pt(rng.Float64()*20-10, rng.Float64()*20-10)

		got := ix.Within(q, radius, nil)
		sort.Ints(got)
		var want []int
		e := geo.Euclidean{}
		for i, p := range pts {
			if e.Distance(q, p) <= radius {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNeighborhoods(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(10, 10)}
	ix := New(pts, 2)
	nb := ix.Neighborhoods(1.5)
	if len(nb) != 3 {
		t.Fatalf("neighborhood count = %d", len(nb))
	}
	sort.Ints(nb[0])
	if len(nb[0]) != 2 || nb[0][0] != 0 || nb[0][1] != 1 {
		t.Errorf("nb[0] = %v, want [0 1]", nb[0])
	}
	if len(nb[2]) != 1 || nb[2][0] != 2 {
		t.Errorf("nb[2] = %v, want [2]", nb[2])
	}
	// Symmetry: j in nb[i] iff i in nb[j].
	for i := range nb {
		for _, j := range nb[i] {
			found := false
			for _, k := range nb[j] {
				if k == i {
					found = true
				}
			}
			if !found {
				t.Errorf("asymmetric neighborhood: %d in nb[%d] but not vice versa", j, i)
			}
		}
	}
}

// TestWithinTinyCellLargeExtent is the cell-key overflow regression test.
// A 1e-6 cell size over a ~2147 km extent produces cell indices beyond
// int32 range; Go's float-to-int conversion of out-of-range values is
// implementation-defined (0x80000000 on amd64), so with 32-bit keys the
// query's high corner collapsed below its low corner and the scan loop never
// ran — every neighborhood near the far edge came back empty. 64-bit keys
// make the indices exact.
func TestWithinTinyCellLargeExtent(t *testing.T) {
	pts := []geo.Point{
		geo.Pt(0, 0),
		geo.Pt(2147.4836, 0), // cell index ~2.1474836e9, just inside int32
		geo.Pt(2147.4837, 0), // cell index ~2.1474837e9, beyond int32
	}
	ix := New(pts, 1e-6)
	got := ix.Within(geo.Pt(2147.4837, 0), 2e-4, nil)
	sort.Ints(got)
	want := []int{1, 2} // 0.0001 apart, both within the 2e-4 radius
	if len(got) != len(want) {
		t.Fatalf("Within = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Within = %v, want %v", got, want)
		}
	}
	// The bulk form must agree.
	nbr := ix.Neighborhoods(2e-4)
	if len(nbr[2]) != 2 {
		t.Errorf("Neighborhoods[2] = %v, want two points", nbr[2])
	}
}
