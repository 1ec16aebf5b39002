// Package grid lists, for every point of a fixed set, the points within a
// radius of it: the ε-balls VDPS generation takes as each delivery point's
// successors. A uniform grid of cells keeps each ball's search to the cells
// around its point, so the lists cost about what they hold rather than a
// scan of the whole set per point.
package grid

import (
	"cmp"
	"math"
	"slices"

	"fairtask/internal/geo"
)

// Neighborhoods returns, for every point of pts, the indices of all points
// within Euclidean distance r of it, itself included, in ascending order.
// A point q is in p's list iff geo.Euclidean{}.Distance(p, q) <= r, with
// the query point first; no point is within a negative or NaN radius. The
// lists are capacity-limited windows into one backing array of exactly
// their total length, so a caller that appends to one copies it instead of
// overwriting the next.
//
// The points are bucketed into square cells of side r, anchored at the
// set's lower-left corner (side 1 when r is 0 or +Inf). The occupied cells
// are one array sorted by (column, row), each cell's points in ascending
// index, so a point's ball tests only the points of the occupied cells its
// r-square (the square of side 2r centred on it) covers, found by a search
// forward through that array one column at a time. The points are visited
// cell by cell, and the points of one cell share that search. A first pass
// counts each ball, which sizes the backing array; a second fills it. It
// allocates the cell keys, the cell offsets, the lists' headers and their
// backing array, and nothing else unless a square covers more than nine
// occupied cells, as an infinite radius can.
func Neighborhoods(pts []geo.Point, r float64) [][]int {
	out := make([][]int, len(pts))
	if len(pts) == 0 || !(r >= 0) {
		return out
	}
	var ix cells
	ix.init(pts, r)
	var sq square
	var buf [9]span
	runs := buf[:0]
	total := 0
	for k := range ix.pt {
		var q geo.Point
		q, runs = ix.square(&sq, runs, k)
		n := int32(0)
		for _, s := range runs {
			for _, c := range ix.pt[s.lo:s.hi] {
				if ix.within(q, c.i) {
					n++
				}
			}
		}
		ix.pt[k].n = n
		total += int(n)
	}
	// Lay the lists out in point order, each at its counted length.
	flat := make([]int, total)
	for _, k := range ix.pt {
		out[k.i] = flat[:k.n]
	}
	off := 0
	for i, l := range out {
		end := off + len(l)
		out[i] = flat[off:off:end]
		off = end
	}
	sq = square{}
	for k := range ix.pt {
		var q geo.Point
		q, runs = ix.square(&sq, runs, k)
		ball := out[ix.pt[k].i]
		for _, s := range runs {
			for _, c := range ix.pt[s.lo:s.hi] {
				if ix.within(q, c.i) {
					ball = append(ball, int(c.i))
				}
			}
		}
		slices.Sort(ball)
		out[ix.pt[k].i] = ball
	}
	return out
}

// keyed is one point in cell order: its cell's column and row, its index,
// and its ball's size once counted.
type keyed struct {
	cx, cy int64
	i, n   int32
}

// span is a run of points of one occupied cell: pt[lo:hi].
type span struct{ lo, hi int32 }

// cells is the sorted cell index of one Neighborhoods call. Occupied cell c
// holds the points pt[start[c]:start[c+1]], and its column and row are
// those of pt[start[c]].
type cells struct {
	pts    []geo.Point
	r      float64
	size   float64
	origin geo.Point
	pt     []keyed
	start  []int32
}

// init buckets pts into cells of side r, or 1 when r is 0 or +Inf.
func (ix *cells) init(pts []geo.Point, r float64) {
	*ix = cells{pts: pts, r: r, size: r, origin: geo.Bounds(pts).Min}
	if r == 0 || math.IsInf(r, 1) {
		ix.size = 1
	}
	ix.pt = make([]keyed, len(pts))
	for i, p := range pts {
		cx, cy := ix.key(p)
		ix.pt[i] = keyed{cx: cx, cy: cy, i: int32(i)}
	}
	slices.SortFunc(ix.pt, func(a, b keyed) int {
		switch {
		case a.cx != b.cx:
			return cmp.Compare(a.cx, b.cx)
		case a.cy != b.cy:
			return cmp.Compare(a.cy, b.cy)
		}
		return cmp.Compare(a.i, b.i)
	})
	ix.start = make([]int32, 0, len(pts)+1)
	for k := range ix.pt {
		if k == 0 || ix.pt[k].cx != ix.pt[k-1].cx || ix.pt[k].cy != ix.pt[k-1].cy {
			ix.start = append(ix.start, int32(k))
		}
	}
	ix.start = append(ix.start, int32(len(ix.pt)))
}

// key returns the column and row of the cell holding p.
func (ix *cells) key(p geo.Point) (int64, int64) {
	return cell((p.X - ix.origin.X) / ix.size), cell((p.Y - ix.origin.Y) / ix.size)
}

// cell returns the cell coordinate x falls in. The coordinate is an int64:
// a tiny cell over a large extent (an ε of 1e-6 km on a continental
// dataset) gives coordinates beyond int32 range. Past ±2^62 it saturates,
// where Go's float-to-int conversion would be implementation-defined;
// saturating keeps the order, so a point is never missed, and merged cells
// only give the distance test more points. An infinite radius reaches
// every cell this way.
func cell(x float64) int64 {
	const limit = 1 << 62
	switch f := math.Floor(x); {
	case f >= limit:
		return limit
	case f <= -limit:
		return -limit
	default:
		return int64(f)
	}
}

// within reports whether point j is within r of q. A point more than r
// away along either axis is not, and Hypot is not called for it: the
// distance is math.Hypot of the same differences, which is never less than
// either one's magnitude.
func (ix *cells) within(q geo.Point, j int32) bool {
	p := ix.pts[j]
	if math.Abs(q.X-p.X) > ix.r || math.Abs(q.Y-p.Y) > ix.r {
		return false
	}
	return geo.Euclidean{}.Distance(q, p) <= ix.r
}

// square is the r-square of the point last asked for, as cell bounds.
type square struct {
	lx, ly, hx, hy int64
	set            bool
}

// square returns the location of the k-th point in cell order and the runs
// of the occupied cells its r-square covers, in runs, which holds those of
// the square sq describes. Called in cell order, it searches once per
// distinct square, so the points of one cell share it.
func (ix *cells) square(sq *square, runs []span, k int) (geo.Point, []span) {
	q, r := ix.pts[ix.pt[k].i], ix.r
	lx, ly := ix.key(geo.Pt(q.X-r, q.Y-r))
	hx, hy := ix.key(geo.Pt(q.X+r, q.Y+r))
	if next := (square{lx, ly, hx, hy, true}); next != *sq {
		*sq = next
		runs = ix.cover(runs[:0], lx, ly, hx, hy)
	}
	return q, runs
}

// cover appends to runs the occupied cells in columns lx to hx and rows ly
// to hy, in cell order.
func (ix *cells) cover(runs []span, lx, ly, hx, hy int64) []span {
	last := len(ix.start) - 1
	for c := ix.seek(0, lx, ly); c < last; {
		k := &ix.pt[ix.start[c]]
		switch {
		case k.cx > hx:
			return runs
		case k.cy < ly:
			c = ix.seek(c, k.cx, ly)
		case k.cy > hy:
			c = ix.seek(c, k.cx+1, ly)
		default:
			runs = append(runs, span{ix.start[c], ix.start[c+1]})
			c++
		}
	}
	return runs
}

// before reports whether occupied cell c comes before column cx, row cy.
func (ix *cells) before(c int, cx, cy int64) bool {
	k := &ix.pt[ix.start[c]]
	return k.cx < cx || k.cx == cx && k.cy < cy
}

// seek returns the first occupied cell at or after column cx, row cy,
// searching from cell c on: it gallops forward from c, then bisects the
// last step, so a target near c costs a few probes.
func (ix *cells) seek(c int, cx, cy int64) int {
	last := len(ix.start) - 1
	if c >= last || !ix.before(c, cx, cy) {
		return c
	}
	lo, step := c, 1 // cell lo comes before the target
	for lo+step < last && ix.before(lo+step, cx, cy) {
		lo += step
		step *= 2
	}
	hi := min(lo+step, last)
	for lo+1 < hi {
		m := int(uint(lo+hi) >> 1)
		if ix.before(m, cx, cy) {
			lo = m
		} else {
			hi = m
		}
	}
	return hi
}
