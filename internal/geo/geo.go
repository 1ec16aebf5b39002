// Package geo provides the planar geometry primitives used throughout the
// fairtask library: points, distance metrics, bounding boxes and centroids.
//
// The paper models worker and delivery-point locations as points in a 2D
// Euclidean plane (kilometres); all travel distances derive from a Metric.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the 2D plane. Coordinates are in kilometres unless a
// caller documents otherwise.
type Point struct {
	X, Y float64
}

// String renders the point as "(x, y)" with short float formatting.
func (p Point) String() string {
	return fmt.Sprintf("(%g, %g)", p.X, p.Y)
}

// Add returns the component-wise sum p + q.
func (p Point) Add(q Point) Point {
	return Point{p.X + q.X, p.Y + q.Y}
}

// Sub returns the component-wise difference p - q.
func (p Point) Sub(q Point) Point {
	return Point{p.X - q.X, p.Y - q.Y}
}

// Scale returns the point scaled by f.
func (p Point) Scale(f float64) Point {
	return Point{p.X * f, p.Y * f}
}

// IsFinite reports whether both coordinates are finite numbers.
func (p Point) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// Metric computes the travel distance between two locations.
// Implementations must be symmetric, non-negative, and zero on identical
// points; the library's pruning logic additionally assumes the triangle
// inequality holds. With a finite pruning threshold ε, candidate generation
// finds each point's ε-neighbours in a Euclidean grid, so a metric must also
// never read below the Euclidean distance (Euclidean and Manhattan qualify):
// a point nearer than ε under a shorter metric but farther in a straight
// line is never offered as a successor.
type Metric interface {
	Distance(a, b Point) float64
	// Name identifies the metric in logs and experiment output.
	Name() string
}

// Euclidean is the straight-line distance metric used by the paper.
type Euclidean struct{}

// Distance returns sqrt((ax-bx)^2 + (ay-by)^2).
func (Euclidean) Distance(a, b Point) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}

// Name implements Metric.
func (Euclidean) Name() string { return "euclidean" }

// Manhattan is the L1 (city-block) metric, useful for grid-like road
// networks. It is provided as an alternative travel substrate; the paper's
// experiments use Euclidean.
type Manhattan struct{}

// Distance returns |ax-bx| + |ay-by|.
func (Manhattan) Distance(a, b Point) float64 {
	return math.Abs(a.X-b.X) + math.Abs(a.Y-b.Y)
}

// Name implements Metric.
func (Manhattan) Name() string { return "manhattan" }

// Rect is an axis-aligned bounding box. Min is the lower-left corner and Max
// the upper-right corner; a Rect with Min == Max is a degenerate point box.
type Rect struct {
	Min, Max Point
}

// Contains reports whether p lies inside the rectangle (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Width returns the horizontal extent of the rectangle.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of the rectangle.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the midpoint of the rectangle.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Expand grows the rectangle to include p and returns the result.
func (r Rect) Expand(p Point) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, p.X), math.Min(r.Min.Y, p.Y)},
		Max: Point{math.Max(r.Max.X, p.X), math.Max(r.Max.Y, p.Y)},
	}
}

// Bounds returns the bounding box of the points, or a zero Rect when the
// slice is empty.
func Bounds(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r = r.Expand(p)
	}
	return r
}

// Centroid returns the arithmetic mean of the points. It is the rule the
// paper uses to place the gMission distribution center
// (dc.l = (mean x, mean y) over all task locations). The second return value
// is false when pts is empty.
func Centroid(pts []Point) (Point, bool) {
	if len(pts) == 0 {
		return Point{}, false
	}
	var c Point
	for _, p := range pts {
		c.X += p.X
		c.Y += p.Y
	}
	n := float64(len(pts))
	return Point{c.X / n, c.Y / n}, true
}

// Pt is shorthand for Point{X: x, Y: y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }
