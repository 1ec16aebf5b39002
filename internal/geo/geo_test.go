package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

func TestEuclideanDistance(t *testing.T) {
	e := Euclidean{}
	cases := []struct {
		a, b Point
		want float64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 2}, 1},
		{Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, c := range cases {
		if got := e.Distance(c.a, c.b); !almostEqual(got, c.want) {
			t.Errorf("Distance(%v, %v) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestManhattanDistance(t *testing.T) {
	m := Manhattan{}
	if got := m.Distance(Point{0, 0}, Point{3, 4}); !almostEqual(got, 7) {
		t.Errorf("Manhattan distance = %g, want 7", got)
	}
	if got := m.Distance(Point{-1, 2}, Point{-1, 2}); got != 0 {
		t.Errorf("Manhattan self-distance = %g, want 0", got)
	}
}

func TestMetricNames(t *testing.T) {
	if name := (Euclidean{}).Name(); name != "euclidean" {
		t.Errorf("Euclidean name = %q", name)
	}
	if name := (Manhattan{}).Name(); name != "manhattan" {
		t.Errorf("Manhattan name = %q", name)
	}
}

// Property: both metrics are symmetric and non-negative.
func TestMetricProperties(t *testing.T) {
	for _, m := range []Metric{Euclidean{}, Manhattan{}} {
		m := m
		symmetric := func(ax, ay, bx, by float64) bool {
			a, b := Point{ax, ay}, Point{bx, by}
			d1, d2 := m.Distance(a, b), m.Distance(b, a)
			return d1 == d2 && d1 >= 0
		}
		if err := quick.Check(symmetric, nil); err != nil {
			t.Errorf("%s: symmetry/non-negativity violated: %v", m.Name(), err)
		}
	}
}

// Property: triangle inequality holds for both metrics (within float slack).
func TestMetricTriangleInequality(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	for _, m := range []Metric{Euclidean{}, Manhattan{}} {
		m := m
		tri := func(ax, ay, bx, by, cx, cy int16) bool {
			a := Point{float64(ax), float64(ay)}
			b := Point{float64(bx), float64(by)}
			c := Point{float64(cx), float64(cy)}
			return m.Distance(a, c) <= m.Distance(a, b)+m.Distance(b, c)+1e-9
		}
		if err := quick.Check(tri, cfg); err != nil {
			t.Errorf("%s: triangle inequality violated: %v", m.Name(), err)
		}
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestPointIsFinite(t *testing.T) {
	if !(Point{1, 2}).IsFinite() {
		t.Error("finite point reported non-finite")
	}
	for _, p := range []Point{
		{math.NaN(), 0}, {0, math.NaN()},
		{math.Inf(1), 0}, {0, math.Inf(-1)},
	} {
		if p.IsFinite() {
			t.Errorf("%v reported finite", p)
		}
	}
}

func TestPointString(t *testing.T) {
	if got := (Point{1.5, -2}).String(); got != "(1.5, -2)" {
		t.Errorf("String = %q", got)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{Min: Point{0, 0}, Max: Point{10, 10}}
	if !r.Contains(Point{5, 5}) || !r.Contains(Point{0, 0}) || !r.Contains(Point{10, 10}) {
		t.Error("Rect should contain interior and boundary points")
	}
	if r.Contains(Point{11, 5}) || r.Contains(Point{5, -1}) {
		t.Error("Rect should not contain exterior points")
	}
}

func TestRectGeometry(t *testing.T) {
	r := Rect{Min: Point{1, 2}, Max: Point{5, 8}}
	if !almostEqual(r.Width(), 4) || !almostEqual(r.Height(), 6) {
		t.Errorf("Width/Height = %g/%g", r.Width(), r.Height())
	}
	if c := r.Center(); c != (Point{3, 5}) {
		t.Errorf("Center = %v", c)
	}
}

func TestBounds(t *testing.T) {
	if got := Bounds(nil); got != (Rect{}) {
		t.Errorf("Bounds(nil) = %+v", got)
	}
	pts := []Point{{1, 5}, {-2, 3}, {4, 0}}
	r := Bounds(pts)
	if r.Min != (Point{-2, 0}) || r.Max != (Point{4, 5}) {
		t.Errorf("Bounds = %+v", r)
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("Bounds does not contain %v", p)
		}
	}
}

func TestCentroid(t *testing.T) {
	if _, ok := Centroid(nil); ok {
		t.Error("Centroid(nil) should report !ok")
	}
	c, ok := Centroid([]Point{{0, 0}, {2, 0}, {1, 3}})
	if !ok || !almostEqual(c.X, 1) || !almostEqual(c.Y, 1) {
		t.Errorf("Centroid = %v ok=%v", c, ok)
	}
}

// Property: the centroid always lies inside the bounding box of its points.
func TestCentroidInsideBounds(t *testing.T) {
	f := func(raw []struct{ X, Y int8 }) bool {
		if len(raw) == 0 {
			return true
		}
		pts := make([]Point, len(raw))
		for i, r := range raw {
			pts[i] = Point{float64(r.X), float64(r.Y)}
		}
		c, ok := Centroid(pts)
		if !ok {
			return false
		}
		b := Bounds(pts)
		const eps = 1e-9
		return c.X >= b.Min.X-eps && c.X <= b.Max.X+eps &&
			c.Y >= b.Min.Y-eps && c.Y <= b.Max.Y+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
