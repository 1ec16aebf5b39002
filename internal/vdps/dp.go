package vdps

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"unsafe"

	"fairtask/internal/bitset"
	"fairtask/internal/model"
)

// entry is one Pareto-frontier state of a DP node: parent indexes the
// previous level's entries (-1 at level 1) and point is the node's last
// point, so a sequence is rebuilt by walking parents back to level 1.
type entry struct {
	time, slack float64
	parent      int32
	point       int32
}

// ext is a frontier state under construction. While a set's run is
// expanded it is one feasible extension, recorded in generation order: the
// state it reaches, the entry it extends (parent) and its target, the run's
// x-th. While a level's candidates are merged, parent is the entry the
// state is.
type ext struct {
	time, slack float64
	parent, x   int32
}

// insertState adds st to the frontier fr unless a state no slower and no
// tighter is already there, dropping the states st dominates; on an exact
// tie the earlier state stays. The states are an antichain, so a state st
// dominates and one that dominates st never coexist. Survivors keep their
// arrival order.
func insertState(fr []ext, st ext) []ext {
	for _, ex := range fr {
		if ex.time <= st.time && ex.slack >= st.slack {
			return fr
		}
	}
	kept := fr[:0]
	for _, ex := range fr {
		if !(st.time <= ex.time && st.slack >= ex.slack) {
			kept = append(kept, ex)
		}
	}
	return append(kept, st)
}

// level is one DP level. Its nodes are numbered in creation order: node i's
// frontier is ents[lo[i]:hi[i]] of the level's entries, its last point is
// those entries' point, and tup[i*size:(i+1)*size] holds its set's points in
// ascending order. emit fills byset with the node ids sorted by set,
// lexicographically, in creation order within a set, and runs with the
// bounds of each set's run in byset.
type level struct {
	lo, hi []int32
	tup    []int32
	byset  []int32
	runs   []int32
}

// tuple returns node i's points, for a level of size-point sets.
func (l *level) tuple(i int32, size int) []int32 {
	return l.tup[int(i)*size : int(i+1)*size : int(i+1)*size]
}

// dp is one run of the C-VDPS dynamic program. It enumerates in a fixed
// order — nodes in creation order, successors in ascending order, frontier
// entries in list order — so on an exact (Time, Slack) tie the
// first-generated sequence survives, whatever the index settings.
type dp struct {
	in      *model.Instance
	n, nw   int
	maxSize int
	eps     float64
	// nb gives each point's successors in ascending order and their legs,
	// as Generator.neighborhoods lists them.
	nb successors

	// changed and hops restrict the run for RepairExpiries: a node is kept
	// only if its set holds a changed point or its last point is within the
	// remaining size budget, in ε-graph hops, of one; and only sets holding
	// a changed point become candidates. Every ancestor of a kept node is
	// kept (the hop bound relaxes by exactly one per step back), so kept
	// nodes get the full run's frontiers, in the full run's order. changed
	// is nil for a full run. view is nb filtered to the level's hop budget
	// (see restrict), which the sets holding no changed point extend along.
	changed bitset.Set
	hops    []int
	view    successors

	// stats counts a full run's work. A restricted run's are not kept, and
	// its view leaves out successors a full run counts as pruned.
	stats Stats
	sc    *scratch
	// made counts what the candidates emit recorded so far hold.
	made tally
}

// tally counts what a run's candidates hold: how many there are, their
// points, their trimmed mask words, their frontier states and the points of
// those states' sequences. That is what the table pass allocates, and its
// bytes are the candidates' (see Candidate.bytes).
type tally struct {
	cands, points, words, states, seqPoints int
}

// bytes returns the bytes the counted candidates hold: each one's table
// entry and its slab bytes, as Candidate.bytes counts them.
func (t tally) bytes() int {
	return t.cands*entryBytes + (t.points+t.seqPoints)*intBytes + t.words*wordBytes + t.states*stateBytes
}

// scratch holds the working buffers of a DP run, and the candidates the run
// records level by level until the table pass copies them out to
// exact-size slabs. Runs keep it between them (see kept), so every buffer
// is overwritten before it is read.
type scratch struct {
	expiry, reward []float64
	// ents[k] holds the frontier entries of the size-(k+1) level.
	ents     [][]entry
	cur, nxt level

	// The targets expand finds, in discovery order: target t ends at point
	// tq[t] and its frontier is ents[tfirst[t]:tfirst[t+1]] of the new
	// level; source node s found targets start[s] to start[s]+found[s]-1
	// first. While a set's run is expanded, slot[q] is the run's target
	// ending at q, or -1, and exts holds the run's extensions, which a
	// counting sort on their target copies into sorted.
	tq, tfirst   []int32
	start, found []int32
	slot         []int32
	exts, sorted []ext

	cnt, perm []int32  // counting-sort buckets; emit's second order
	words     []uint64 // one set's bitset words
	fr        []ext    // the frontier being merged
	// The run's candidates, in the order emit records them: level by level,
	// lexicographically within a level. Candidate c's frontier states are
	// the entries cfr[cfirst[c]:cfirst[c+1]] of its level, in ascending
	// time, and the size-k candidates' point tuples follow one another in
	// ctup after those of the smaller sizes. upTo[k] is the number of
	// candidates of size at most k.
	ctup, cfirst, cfr []int32
	upTo              []int32

	// A restricted run's view (see restrict): each point's row and, for the
	// ε-ball lists, its legs, backed by vq and vleg.
	vrows [][]int
	vlegs [][]leg
	vq    []int
	vleg  []leg
}

// scratchCap is the most bytes of buffers a kept scratch may hold. Measured
// on fresh scratch, the run's recorded candidates included: a W200 run (GM
// 1000/200/150, ε 0.6) uses 2.6 MB, GM 200/40/60 unpruned 8.1 MB, and the
// cold generation of the stream benchmark's instance (GM 360/8/120, ε 1.5)
// 9.4 MB. So a W200 solve's scratch is kept, while the stream's cold
// generation, which a state build and the dynamics follow, does not hold on
// to its buffers through them.
const scratchCap = 8 << 20

// kept is the free list of DP scratch, at most GOMAXPROCS of them, each under
// scratchCap bytes. It is package state, shared by every run in the
// process, but it cannot carry anything from one run to the next: every
// buffer of a scratch is overwritten before it is read, so reuse changes no
// result and tests cannot interfere through it. A sync.Pool would not do: a
// W200 request runs GCs between two generations, and they empty a pool.
var kept struct {
	sync.Mutex
	list []*scratch
}

// takeScratch returns a kept scratch, or a new one when none is kept.
func takeScratch() *scratch {
	kept.Lock()
	defer kept.Unlock()
	n := len(kept.list)
	if n == 0 {
		return new(scratch)
	}
	sc := kept.list[n-1]
	kept.list[n-1] = nil
	kept.list = kept.list[:n-1]
	return sc
}

// keepScratch puts sc back on the free list, unless the list is full or sc
// holds more than scratchCap bytes.
func keepScratch(sc *scratch) {
	if sc.bytes() > scratchCap {
		return
	}
	kept.Lock()
	defer kept.Unlock()
	if len(kept.list) < runtime.GOMAXPROCS(0) {
		kept.list = append(kept.list, sc)
	}
}

// bytes returns the capacity of sc's buffers in bytes.
func (sc *scratch) bytes() int {
	n := capBytes(sc.expiry) + capBytes(sc.reward) + capBytes(sc.ents)
	for _, e := range sc.ents {
		n += capBytes(e)
	}
	for _, l := range []*level{&sc.cur, &sc.nxt} {
		n += capBytes(l.lo) + capBytes(l.hi) + capBytes(l.tup) + capBytes(l.byset) + capBytes(l.runs)
	}
	n += capBytes(sc.tq) + capBytes(sc.tfirst) + capBytes(sc.start) + capBytes(sc.found) +
		capBytes(sc.slot) + capBytes(sc.exts) + capBytes(sc.sorted)
	n += capBytes(sc.vrows) + capBytes(sc.vlegs) + capBytes(sc.vq) + capBytes(sc.vleg)
	return n + capBytes(sc.cnt) + capBytes(sc.perm) + capBytes(sc.words) + capBytes(sc.fr) +
		capBytes(sc.ctup) + capBytes(sc.cfirst) + capBytes(sc.cfr) + capBytes(sc.upTo)
}

func capBytes[S ~[]E, E any](s S) int {
	var e E
	return cap(s) * int(unsafe.Sizeof(e))
}

// resize returns a slice of length n, s itself when its capacity allows. The
// contents are not kept.
func resize[S ~[]E, E any](s S, n int) S {
	if n <= cap(s) {
		return s[:n]
	}
	return make(S, n)
}

// room returns s emptied, with capacity for at least n elements. Sizing a
// buffer to its bound once, instead of growing it by appends, keeps a run on
// fresh scratch to a few allocations.
func room[S ~[]E, E any](s S, n int) S {
	if n <= cap(s) {
		return s[:0]
	}
	return make(S, 0, n)
}

// level returns the emptied entry buffer of the size-(k+1) level.
func (sc *scratch) level(k int) []entry {
	for len(sc.ents) <= k {
		sc.ents = append(sc.ents, nil)
	}
	return sc.ents[k][:0]
}

// newDP prepares a DP run over the generator's instance, enumerating
// successors and reading their legs from the generator's neighborhoods. The
// ε-ball lists are sorted, so they are a pure filter of the every-point
// lists' ascending order, and each leg is the travel model's own value, so
// which lists a run reads changes no result.
func (g *Generator) newDP(maxSize int) *dp {
	n := len(g.inst.Points)
	return &dp{in: g.inst, n: n, nw: (n + 63) / 64, maxSize: maxSize, eps: epsilon(g.opt), nb: g.neighborhoods()}
}

// run executes the DP and records the candidates in the scratch, in
// (size, lexicographic points) order, for the table pass (appendTable) to
// copy out; d.made counts them. maxSets > 0 makes a level that takes base
// plus the candidates so far past maxSets fail with ErrTooManySets; the
// singleton level is exempt. Cancellation is polled at level boundaries and
// every 64 nodes, and returns ctx.Err() with nothing to copy out. The run
// works in a kept scratch, which it holds until release.
func (d *dp) run(ctx context.Context, maxSets, base int) error {
	if d.n == 0 {
		return nil
	}
	d.sc = takeScratch()
	in, sc := d.in, d.sc
	sc.expiry = resize(sc.expiry, d.n)
	sc.reward = resize(sc.reward, d.n)
	for i := range in.Points {
		sc.expiry[i] = in.Points[i].EarliestExpiry()
		sc.reward[i] = in.Points[i].TotalReward()
	}
	sc.ctup, sc.cfirst, sc.cfr = sc.ctup[:0], append(sc.cfirst[:0], 0), sc.cfr[:0]
	sc.upTo = append(sc.upTo[:0], 0)
	// The singletons, created in ascending point order.
	cur := &sc.cur
	ents := room(sc.level(0), d.n)
	cur.lo, cur.hi, cur.tup = room(cur.lo, d.n), room(cur.hi, d.n), room(cur.tup, d.n)
	for j := 0; j < d.n; j++ {
		t := in.Travel.Time(in.Center, in.Points[j].Loc)
		if t > sc.expiry[j] {
			continue
		}
		if d.changed != nil && d.hops[j] > d.maxSize-1 {
			continue
		}
		cur.lo = append(cur.lo, int32(len(ents)))
		ents = append(ents, entry{time: t, slack: sc.expiry[j] - t, parent: -1, point: int32(j)})
		cur.hi = append(cur.hi, int32(len(ents)))
		cur.tup = append(cur.tup, int32(j))
	}
	sc.ents[0] = ents
	d.stats.SubsetsExplored += len(cur.lo)
	d.emit(1)

	for size := 2; size <= d.maxSize && len(sc.cur.lo) > 0; size++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := d.expand(ctx, size); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		sc.cur, sc.nxt = sc.nxt, sc.cur
		d.stats.SubsetsExplored += len(sc.cur.lo)
		if k := d.emit(size); k > 0 && maxSets > 0 && base+d.made.cands > maxSets {
			return ErrTooManySets
		}
	}
	return nil
}

// release gives the run's scratch back to the kept list. The recorded
// candidates are gone after it.
func (d *dp) release() {
	if d.sc != nil {
		keepScratch(d.sc)
		d.sc = nil
	}
}

// expand builds the size-level nodes into the scratch's nxt level by
// extending every frontier entry of every cur node with every unvisited
// successor within ε of its last point, and applies Pareto dominance to each
// target node's extensions in generation order. In a restricted run a set
// that holds no changed point extends along the level's hop view instead
// (see restrict); it holds the successors in the same order, less only
// those the hop bound rejects, so the extensions come in the same order.
//
// A target node is (the source node's set plus q, q), so the sources of one
// target share a set, and expand walks cur's nodes one set's run at a time,
// each run in creation order. Within a run, slot[q] finds the target ending
// at q in O(1), and the extensions are recorded in generation order. A
// stable counting sort on their target then groups them, and each target's
// frontier merges its extensions in generation order. A target is created
// by the first node to reach it, and one node creates its targets in
// ascending q; so listing each source node's new targets in creation order
// of the source numbers the targets in the order the nodes-in-creation-order
// enumeration creates them.
func (d *dp) expand(ctx context.Context, size int) error {
	nw, sc := d.nw, d.sc
	cur, nxt := &sc.cur, &sc.nxt
	// A level usually holds more nodes and entries than the one it extends,
	// so its buffers start at that one's size.
	from := sc.ents[size-2]
	ents := room(sc.level(size-1), len(from))
	nsrc := len(cur.lo)
	budget := d.maxSize - size
	if d.changed != nil {
		d.restrict(budget)
	}
	slot := resize(sc.slot, d.n)
	for i := range slot {
		slot[i] = -1
	}
	words := resize(sc.words, nw)
	start, found := resize(sc.start, nsrc), resize(sc.found, nsrc)
	tq, tfirst := room(sc.tq, nsrc), room(sc.tfirst, nsrc+1)
	exts, sorted, cnt, fr := sc.exts, sc.sorted, sc.cnt, sc.fr
	polls := 0
	for r := 0; r+1 < len(cur.runs); r++ {
		run := cur.byset[cur.runs[r]:cur.runs[r+1]]
		clear(words)
		for _, p := range cur.tuple(run[0], size-1) {
			words[p>>6] |= 1 << (p & 63)
		}
		nb := &d.nb
		if d.changed != nil && !bitset.Set(words).Intersects(d.changed) {
			nb = &d.view
		}
		first := len(tq)
		exts = exts[:0]
		for _, s := range run {
			if polls&0x3f == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			polls++
			lo, hi := cur.lo[s], cur.hi[s]
			last := from[lo].point
			start[s] = int32(len(tq))
			succ, legs := nb.at(int(last))
			members := 0
			for k, q := range succ {
				if words[q>>6]&(1<<(q&63)) != 0 {
					members++
					continue
				}
				if legs[k].dist > d.eps {
					d.stats.ExtensionsPruned++
					continue
				}
				legTime := legs[k].time
				for e := lo; e < hi; e++ {
					nt := from[e].time + legTime
					if nt > sc.expiry[q] {
						continue
					}
					slack := from[e].slack
					if rem := sc.expiry[q] - nt; rem < slack {
						slack = rem
					}
					x := slot[q]
					if x < 0 {
						x = int32(len(tq) - first)
						slot[q] = x
						tq = append(grow(tq, 1), int32(q))
					}
					exts = append(grow(exts, 1), ext{time: nt, slack: slack, parent: e, x: x})
				}
			}
			found[s] = int32(len(tq)) - start[s]
			// The points outside the successor list count as pruned, as a
			// scan of every point counts them, except the set's own members
			// (the set holds size-1 points), which the scan skips.
			d.stats.ExtensionsPruned += d.n - len(succ) - (size - 1 - members)
		}
		// The run's targets are complete. Group their extensions, keeping
		// generation order within a target, and merge each frontier.
		cnt = resize(cnt, len(tq)-first+1)
		clear(cnt)
		for i := range exts {
			cnt[exts[i].x+1]++
		}
		for x := 1; x < len(cnt); x++ {
			cnt[x] += cnt[x-1]
		}
		if cap(sorted) < len(exts) {
			sorted = make([]ext, cap(exts))
		}
		sorted = sorted[:len(exts)]
		for i := range exts {
			sorted[cnt[exts[i].x]] = exts[i]
			cnt[exts[i].x]++
		}
		i := 0
		for x, q := range tq[first:] {
			fr = fr[:0]
			for ; i < len(sorted) && int(sorted[i].x) == x; i++ {
				fr = insertState(fr, sorted[i])
			}
			tfirst = append(grow(tfirst, 1), int32(len(ents)))
			ents = grow(ents, len(fr))
			for _, st := range fr {
				ents = append(ents, entry{time: st.time, slack: st.slack, parent: st.parent, point: q})
			}
			slot[q] = -1
		}
	}
	tfirst = append(tfirst, int32(len(ents)))
	sc.ents[size-1] = ents
	sc.slot, sc.words, sc.start, sc.found = slot, words, start, found
	sc.tq, sc.tfirst, sc.exts, sc.sorted, sc.cnt, sc.fr = tq, tfirst, exts, sorted, cnt, fr

	// Number the targets in creation order: each source node's, in creation
	// order of the sources.
	nt := len(tq)
	nxt.lo, nxt.hi, nxt.tup = resize(nxt.lo, nt), resize(nxt.hi, nt), resize(nxt.tup, nt*size)
	id := int32(0)
	for s := int32(0); int(s) < nsrc; s++ {
		src := cur.tuple(s, size-1)
		for t := start[s]; t < start[s]+found[s]; t++ {
			nxt.lo[id], nxt.hi[id] = tfirst[t], tfirst[t+1]
			q, dst := tq[t], nxt.tuple(id, size)
			i := 0
			for ; i < len(src) && src[i] < q; i++ {
				dst[i] = src[i]
			}
			dst[i] = q
			copy(dst[i+1:], src[i:])
			id++
		}
	}
	return nil
}

// restrict sets d.view, for a restricted run's level of budget b, to the
// successor table filtered by the hop bound: each point's successors q with
// hops[q] <= b, in ascending order, with their legs. A set that holds no
// changed point is kept only while a changed point is within its remaining
// size budget, so it extends to such q alone, and at the last level, where
// b is 0, to the changed points alone. Only a point within b+1 hops can end
// such a set, so only those points' ε-ball rows are filled. The every-point
// lists' row is the same for every point, so one filtered row is shared, and
// its legs are computed when a point's row is read, for the successors it
// keeps only.
func (d *dp) restrict(b int) {
	sc := d.sc
	rows := resize(sc.vrows, d.n)
	if d.nb.legs == nil {
		keep := room(sc.vq, d.n)
		for q := 0; q < d.n; q++ {
			if d.hops[q] <= b {
				keep = append(keep, q)
			}
		}
		for p := range rows {
			rows[p] = keep
		}
		sc.vrows, sc.vq = rows, keep
		d.view = successors{in: d.in, eps: d.eps, nbrs: rows, row: d.view.row}
		return
	}
	total := 0
	for p, succ := range d.nb.nbrs {
		if d.hops[p] <= b+1 {
			total += len(succ)
		}
	}
	legs := resize(sc.vlegs, d.n)
	q, lg := room(sc.vq, total), room(sc.vleg, total)
	for p, succ := range d.nb.nbrs {
		i := len(q)
		if d.hops[p] <= b+1 {
			for k, x := range succ {
				if d.hops[x] <= b {
					q = append(q, x)
					lg = append(lg, d.nb.legs[p][k])
				}
			}
		}
		rows[p], legs[p] = q[i:len(q):len(q)], lg[i:len(lg):len(lg)]
	}
	sc.vrows, sc.vlegs, sc.vq, sc.vleg = rows, legs, q, lg
	d.view = successors{in: d.in, eps: d.eps, nbrs: rows, legs: legs}
}

// emit groups the cur level's nodes by set, merges each set's nodes into one
// candidate, applying dominance across them in creation order, and records
// the candidates in the scratch, in lexicographic order, counting them in
// d.made. It returns the number of candidates the level produced.
//
// The grouping is a stable LSD counting sort of the nodes on their ascending
// point tuples, one pass per position and one bucket per point. It leaves
// equal sets adjacent, in creation order, and orders the sets
// lexicographically by tuple, which is the candidates' order: the smallest
// point in exactly one of two sets decides. A restricted run groups every
// node, since expand walks the runs, but only the sets holding a changed
// point become candidates.
func (d *dp) emit(size int) int {
	sc := d.sc
	cur := &sc.cur
	ents := sc.ents[size-1]
	nn := len(cur.lo)
	by, tmp := resize(cur.byset, nn), resize(sc.perm, nn)
	for i := range by {
		by[i] = int32(i)
	}
	cnt := resize(sc.cnt, d.n+1)
	for pos := size - 1; pos >= 0; pos-- {
		clear(cnt)
		for _, v := range by {
			cnt[cur.tup[int(v)*size+pos]+1]++
		}
		for p := 1; p < len(cnt); p++ {
			cnt[p] += cnt[p-1]
		}
		for _, v := range by {
			p := cur.tup[int(v)*size+pos]
			tmp[cnt[p]] = v
			cnt[p]++
		}
		by, tmp = tmp, by
	}
	cur.byset, sc.perm, sc.cnt = by, tmp, cnt

	runs := room(cur.runs, nn+1)
	ctup, cfirst, cfr := sc.ctup, sc.cfirst, sc.cfr
	k := 0
	for i := 0; i < nn; {
		t := cur.tuple(by[i], size)
		j := i + 1
		for j < nn && slices.Equal(cur.tuple(by[j], size), t) {
			j++
		}
		runs = append(runs, int32(i))
		if d.changed == nil || d.holdsChanged(t) {
			fr := sc.fr[:0]
			for _, v := range by[i:j] {
				for e := cur.lo[v]; e < cur.hi[v]; e++ {
					fr = insertState(fr, ext{time: ents[e].time, slack: ents[e].slack, parent: e})
				}
			}
			// By ascending time: a handful of states with distinct times, so
			// an insertion sort.
			for a := 1; a < len(fr); a++ {
				for b := a; b > 0 && fr[b].time < fr[b-1].time; b-- {
					fr[b], fr[b-1] = fr[b-1], fr[b]
				}
			}
			sc.fr = fr
			cfr = grow(cfr, len(fr))
			for _, st := range fr {
				cfr = append(cfr, st.parent)
			}
			cfirst = append(grow(cfirst, 1), int32(len(cfr)))
			ctup = append(grow(ctup, size), t...)
			k++
			d.made.words += int(t[size-1])>>6 + 1
			d.made.states += len(fr)
			d.made.seqPoints += len(fr) * size
		}
		i = j
	}
	cur.runs = append(runs, int32(nn))
	sc.ctup, sc.cfirst, sc.cfr = ctup, cfirst, cfr
	sc.upTo = append(sc.upTo, sc.upTo[len(sc.upTo)-1]+int32(k))
	d.made.cands += k
	d.made.points += k * size
	return k
}

// appendTable is the table pass: it appends the run's recorded candidates
// to g's table, in the order recorded, and their flat entries (see
// appendFlat), which must have room for them. Their points, masks, frontier
// states and sequences go to four slabs allocated at their exact sizes,
// each candidate's a capacity-limited window into them. A mask is trimmed
// to its last non-empty word, as bitset.Of builds it, and the reward sums
// the points' rewards in ascending point order.
func (d *dp) appendTable(g *Generator) {
	t := d.made
	if t.cands == 0 {
		return
	}
	sc := d.sc
	pts := make([]int, 0, t.points)
	masks := make(bitset.Set, 0, t.words)
	front := make([]State, 0, t.states)
	seqs := make([]int, 0, t.seqPoints)
	c, off := 0, 0
	for size := 1; size < len(sc.upTo); size++ {
		for ; c < int(sc.upTo[size]); c++ {
			tup := sc.ctup[off : off+size]
			off += size
			var cand Candidate
			i := len(pts)
			for _, p := range tup {
				pts = append(pts, int(p))
				cand.Reward += sc.reward[p]
			}
			cand.Points = pts[i:len(pts):len(pts)]
			i = len(masks)
			masks = masks[:i+int(tup[size-1])>>6+1]
			clear(masks[i:])
			for _, p := range tup {
				masks[i+int(p)>>6] |= 1 << (p & 63)
			}
			cand.Mask = masks[i:len(masks):len(masks)]
			i = len(front)
			for _, e := range sc.cfr[sc.cfirst[c]:sc.cfirst[c+1]] {
				j := len(seqs)
				seqs = seqs[:j+size]
				seq := seqs[j : j+size : j+size]
				for lv, x := size-1, e; lv >= 0; lv-- {
					en := &sc.ents[lv][x]
					seq[lv] = int(en.point)
					x = en.parent
				}
				st := &sc.ents[size-1][e]
				front = append(front, State{Seq: seq, Time: st.time, Slack: st.slack})
			}
			cand.Frontier = front[i:len(front):len(front)]
			g.candidates = append(g.candidates, cand)
			g.appendFlat(&g.candidates[len(g.candidates)-1])
		}
	}
}

// holdsChanged reports whether the set with ascending points t holds a
// changed point.
func (d *dp) holdsChanged(t []int32) bool {
	for _, p := range t {
		if d.changed.Has(int(p)) {
			return true
		}
	}
	return false
}

// grow returns s with room for n more elements, at least doubling its
// capacity when it reallocates: append's ~1.25x steps for large slices would
// leave about four times the final size behind as garbage.
func grow[S ~[]E, E any](s S, n int) S {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, 2*cap(s)-len(s)))
}

// reserve returns s with room for n more elements. When it must reallocate,
// the new capacity is exactly max(len(s)+n, c): grow's slices.Grow steps a
// large slice's capacity up by 1.25× at a time and can land at 2.5× its
// length.
func reserve[S ~[]E, E any](s S, n, c int) S {
	if len(s)+n <= cap(s) {
		return s
	}
	out := make(S, len(s), max(len(s)+n, c))
	copy(out, s)
	return out
}

// appendClip appends src to slab and returns the appended copy, capped so
// that appending to it never writes into the slab, with the grown slab.
func appendClip[S ~[]E, E any](slab, src S) (S, S) {
	i := len(slab)
	slab = append(slab, src...)
	return slab[i:len(slab):len(slab)], slab
}

// reslab copies every candidate's Points, Mask, Frontier and sequences into
// one fresh set of slabs, so the table stops pinning the slabs of the DP runs
// that produced its candidates.
func reslab(cands []Candidate) {
	var np, nm, nf, ns int
	for i := range cands {
		c := &cands[i]
		np += len(c.Points)
		nm += len(c.Mask)
		nf += len(c.Frontier)
		for _, st := range c.Frontier {
			ns += len(st.Seq)
		}
	}
	pts := make([]int, 0, np)
	masks := make(bitset.Set, 0, nm)
	front := make([]State, 0, nf)
	seqs := make(model.Route, 0, ns)
	for i := range cands {
		c := &cands[i]
		c.Points, pts = appendClip(pts, c.Points)
		c.Mask, masks = appendClip(masks, c.Mask)
		j := len(front)
		for _, st := range c.Frontier {
			st.Seq, seqs = appendClip(seqs, st.Seq)
			front = append(front, st)
		}
		c.Frontier = front[j:len(front):len(front)]
	}
}
