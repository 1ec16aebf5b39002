// Package grid provides a uniform spatial hash index over 2D points, used
// to answer "which delivery points lie within ε of this one" during VDPS
// generation without scanning the full point set per DP extension.
package grid

import (
	"math"

	"fairtask/internal/geo"
)

// Index is a uniform-cell spatial hash over a fixed point set.
// Build one with New; the zero value is unusable.
type Index struct {
	pts      []geo.Point
	cellSize float64
	origin   geo.Point
	cells    map[cellKey][]int
}

// cellKey uses int64 coordinates: a tiny cell size over a large coordinate
// extent (e.g. an ε of 1e-6 km on a continental dataset) produces cell
// indices beyond int32 range, and Go's float-to-int conversion of
// out-of-range values is implementation-defined — silently corrupting
// neighborhoods rather than failing.
type cellKey struct{ cx, cy int64 }

// New builds an index over pts with the given cell size. A non-positive
// cell size defaults to 1. Points are referenced by their slice index.
func New(pts []geo.Point, cellSize float64) *Index {
	if cellSize <= 0 {
		cellSize = 1
	}
	ix := &Index{
		pts:      pts,
		cellSize: cellSize,
		cells:    make(map[cellKey][]int, len(pts)),
	}
	if len(pts) > 0 {
		b := geo.Bounds(pts)
		ix.origin = b.Min
	}
	for i, p := range pts {
		k := ix.keyOf(p)
		ix.cells[k] = append(ix.cells[k], i)
	}
	return ix
}

func (ix *Index) keyOf(p geo.Point) cellKey {
	return cellKey{
		cx: int64(math.Floor((p.X - ix.origin.X) / ix.cellSize)),
		cy: int64(math.Floor((p.Y - ix.origin.Y) / ix.cellSize)),
	}
}

// Within appends to dst the indices of all points with Euclidean distance
// <= r from q (including q itself if indexed) and returns the extended
// slice. Pass a reused dst to avoid allocation in hot loops.
func (ix *Index) Within(q geo.Point, r float64, dst []int) []int {
	if r < 0 || len(ix.pts) == 0 {
		return dst
	}
	e := geo.Euclidean{}
	lo := ix.keyOf(geo.Pt(q.X-r, q.Y-r))
	hi := ix.keyOf(geo.Pt(q.X+r, q.Y+r))
	for cx := lo.cx; cx <= hi.cx; cx++ {
		for cy := lo.cy; cy <= hi.cy; cy++ {
			for _, i := range ix.cells[cellKey{cx, cy}] {
				if e.Distance(q, ix.pts[i]) <= r {
					dst = append(dst, i)
				}
			}
		}
	}
	return dst
}

// Neighborhoods returns, for every indexed point, the indices of all points
// within r of it (including itself). It is the bulk form of Within used to
// precompute the ε-neighbor lists for VDPS generation. It sizes the lists
// first, in one reused buffer, then writes them all into one backing array
// of that size, each list a capacity-limited subslice of it: a caller that
// appends to one list copies it instead of overwriting the next.
func (ix *Index) Neighborhoods(r float64) [][]int {
	var buf []int
	total := 0
	for _, p := range ix.pts {
		buf = ix.Within(p, r, buf[:0])
		total += len(buf)
	}
	flat := make([]int, 0, total)
	out := make([][]int, len(ix.pts))
	for i, p := range ix.pts {
		lo := len(flat)
		flat = ix.Within(p, r, flat)
		out[i] = flat[lo:len(flat):len(flat)]
	}
	return out
}
