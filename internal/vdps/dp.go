package vdps

import (
	"context"
	"math/bits"
	"slices"

	"fairtask/internal/bitset"
	"fairtask/internal/model"
)

// wordTable is an open-addressed hash set of fixed-width word keys. Keys get
// dense ids in insertion order, and key id lives at
// keys[id*width : (id+1)*width], so the table doubles as the flat array of
// the sets (or DP nodes) it indexes.
type wordTable struct {
	width int
	count int
	keys  []uint64
	slots []int32 // id+1; 0 marks an empty slot; the length is a power of two
}

func (t *wordTable) reset(width int) {
	t.width, t.count = width, 0
	t.keys = t.keys[:0]
	clear(t.slots)
}

func (t *wordTable) len() int { return t.count }

func (t *wordTable) key(id int32) []uint64 {
	i := int(id) * t.width
	return t.keys[i : i+t.width : i+t.width]
}

// find returns the id of key k, inserting a copy of it when absent.
func (t *wordTable) find(k []uint64) (id int32, fresh bool) {
	if 2*(t.count+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := hashWords(k) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			id = int32(t.count)
			t.count++
			t.keys = append(grow(t.keys, len(k)), k...)
			t.slots[i] = id + 1
			return id, true
		}
		if slices.Equal(t.key(s-1), k) {
			return s - 1, false
		}
	}
}

func (t *wordTable) grow() {
	size := 2 * len(t.slots)
	if size < 64 {
		size = 64
	}
	t.slots = make([]int32, size)
	mask := uint64(size - 1)
	for id := int32(0); int(id) < t.count; id++ {
		i := hashWords(t.key(id)) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = id + 1
	}
}

func hashWords(k []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range k {
		h = (h ^ w) * 0xff51afd7ed558ccd
		h ^= h >> 32
	}
	return h
}

// lexCmp orders two equal-size sets by their ascending point lists: the
// smallest point in exactly one of them decides, in favour of the set that
// holds it.
func lexCmp(a, b []uint64) int {
	for i := range a {
		if d := a[i] ^ b[i]; d != 0 {
			if a[i]&(d&-d) != 0 {
				return -1
			}
			return 1
		}
	}
	return 0
}

// entry is one Pareto-frontier state of a DP node: parent indexes the
// previous level's entries (-1 at level 1) and point is the node's last
// point, so a sequence is rebuilt by walking parents back to level 1.
type entry struct {
	time, slack float64
	parent      int32
	point       int32
}

// frontiers holds one Pareto frontier per id while a level is built: each a
// linked list, in arrival order, of the live nodes in pool.
type frontiers struct {
	head []int32
	pool []node
}

// node is a frontier state under construction; parent is the entry it
// extends (node frontiers) or the entry it is (candidate frontiers).
type node struct {
	time, slack float64
	parent      int32
	next        int32
}

func (f *frontiers) reset() {
	f.head = f.head[:0]
	f.pool = f.pool[:0]
}

// add appends an empty frontier; its id is the previous frontier count.
func (f *frontiers) add() { f.head = append(f.head, -1) }

// insert adds (t, s) to frontier id unless a state no slower and no tighter
// is already there, unlinking the states it dominates; on an exact tie the
// earlier state stays. The live states are an antichain, so a state the new
// one dominates and one that dominates the new one never coexist, and a
// single pass suffices.
func (f *frontiers) insert(id int32, t, s float64, parent int32) {
	prev := int32(-1)
	for i := f.head[id]; i >= 0; i = f.pool[i].next {
		ex := &f.pool[i]
		if ex.time <= t && ex.slack >= s {
			return
		}
		if t <= ex.time && s >= ex.slack {
			if prev < 0 {
				f.head[id] = ex.next
			} else {
				f.pool[prev].next = ex.next
			}
			continue
		}
		prev = i
	}
	n := int32(len(f.pool))
	f.pool = append(grow(f.pool, 1), node{time: t, slack: s, parent: parent, next: -1})
	if prev < 0 {
		f.head[id] = n
	} else {
		f.pool[prev].next = n
	}
}

// live counts the states on all frontiers.
func (f *frontiers) live() int {
	n := 0
	for _, h := range f.head {
		for i := h; i >= 0; i = f.pool[i].next {
			n++
		}
	}
	return n
}

// level is one DP level. Node i's key is tab.key(i): the set's words, then
// its last point. Its frontier is ents[first[i]:first[i+1]].
type level struct {
	tab   wordTable
	first []int32
	ents  []entry
}

// dp is one run of the flat-arena C-VDPS dynamic program. It enumerates in a
// fixed order — nodes in creation order, successors in ascending order,
// frontier entries in list order — so on an exact (Time, Slack) tie the
// first-generated sequence survives, whatever the index settings.
type dp struct {
	in      *model.Instance
	n, nw   int
	maxSize int
	eps     float64
	expiry  []float64
	reward  []float64
	// succ holds each point's ε-neighbourhood in ascending order, or nil to
	// scan every point.
	succ [][]int

	// changed and hops restrict the run for RepairExpiries: a node is kept
	// only if its set holds a changed point or its last point is within the
	// remaining size budget, in ε-graph hops, of one; and only sets holding
	// a changed point become candidates. Every ancestor of a kept node is
	// kept (the hop bound relaxes by exactly one per step back), so kept
	// nodes get the full run's frontiers, in the full run's order. changed
	// is nil for a full run.
	changed bitset.Set
	hops    []int

	stats Stats
	// ents[k] holds the frontier entries of the size-(k+1) level.
	ents     [][]entry
	cur, nxt level
	key      []uint64
	nodes    frontiers // the level being built, by node id

	// Per-level candidate scratch.
	ctab  wordTable
	cands frontiers // by candidate id
	order []int32
	fr    []int32
	out   []Candidate
}

// newDP prepares a DP run over the generator's instance with per-point
// expiries and rewards, enumerating successors through the generator's
// ε-neighbourhoods unless the index is disabled. Sorted neighbourhoods make
// the index a pure filter of the full scan's ascending order.
func (g *Generator) newDP(maxSize int) *dp {
	in := g.inst
	n := len(in.Points)
	d := &dp{in: in, n: n, nw: (n + 63) / 64, maxSize: maxSize, eps: epsilon(g.opt)}
	if !g.opt.DisableIndex {
		d.succ = g.neighborhoods()
	}
	d.expiry = make([]float64, n)
	d.reward = make([]float64, n)
	for i := range in.Points {
		d.expiry[i] = in.Points[i].EarliestExpiry()
		d.reward[i] = in.Points[i].TotalReward()
	}
	return d
}

// run executes the DP and returns the candidates in (size, lexicographic
// points) order. maxSets > 0 makes a level that takes base plus the
// candidates so far past maxSets fail with ErrTooManySets; the singleton
// level is exempt. Cancellation is polled at level boundaries and every 64
// nodes, and returns ctx.Err() with no partial result.
func (d *dp) run(ctx context.Context, maxSets, base int) ([]Candidate, error) {
	if d.n == 0 {
		return nil, nil
	}
	nw := d.nw
	d.key = make([]uint64, nw+1)
	d.cur.tab.reset(nw + 1)
	d.cur.first = d.cur.first[:0]
	ents := make([]entry, 0, d.n)
	in := d.in
	for j := 0; j < d.n; j++ {
		t := in.Travel.Time(in.Center, in.Points[j].Loc)
		if t > d.expiry[j] {
			continue
		}
		if d.changed != nil && d.hops[j] > d.maxSize-1 {
			continue
		}
		clear(d.key)
		d.key[j>>6] = 1 << (j & 63)
		d.key[nw] = uint64(j)
		d.cur.tab.find(d.key)
		d.cur.first = append(d.cur.first, int32(len(ents)))
		ents = append(ents, entry{time: t, slack: d.expiry[j] - t, parent: -1, point: int32(j)})
	}
	d.cur.first = append(d.cur.first, int32(len(ents)))
	d.cur.ents = ents
	d.ents = append(d.ents, ents)
	d.stats.SubsetsExplored += d.cur.tab.len()
	d.emit(1)

	for size := 2; size <= d.maxSize && d.cur.tab.len() > 0; size++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := d.expand(ctx, size); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d.cur, d.nxt = d.nxt, d.cur
		d.stats.SubsetsExplored += d.cur.tab.len()
		if k := d.emit(size); k > 0 && maxSets > 0 && base+len(d.out) > maxSets {
			return nil, ErrTooManySets
		}
	}
	return d.out, nil
}

// expand builds the size-level nodes into d.nxt by extending every frontier
// entry of every d.cur node with every unvisited point within ε of its last
// point, applying Pareto dominance as each extension arrives.
func (d *dp) expand(ctx context.Context, size int) error {
	in, nw := d.in, d.nw
	cur, nxt := &d.cur, &d.nxt
	nxt.tab.reset(nw + 1)
	d.nodes.reset()
	budget := d.maxSize - size
	for s := int32(0); int(s) < cur.tab.len(); s++ {
		if s&0x3f == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		sk := cur.tab.key(s)
		set, last := sk[:nw], int(sk[nw])
		lastLoc := in.Points[last].Loc
		lo, hi := cur.first[s], cur.first[s+1]
		hit := d.changed != nil && bitset.Set(set).Intersects(d.changed)
		succ, cnt := d.succ, d.n
		if succ != nil {
			cnt = len(succ[last])
			// Extensions the index never enumerates still count as pruned,
			// keeping the stat comparable to the full scan.
			d.stats.ExtensionsPruned += d.n - cnt
		}
		for k := 0; k < cnt; k++ {
			q := k
			if succ != nil {
				q = succ[last][k]
			}
			if set[q>>6]&(1<<(q&63)) != 0 {
				continue
			}
			leg := in.Travel.Distance(lastLoc, in.Points[q].Loc)
			if leg > d.eps {
				d.stats.ExtensionsPruned++
				continue
			}
			if d.changed != nil && !hit && d.hops[q] > budget {
				continue
			}
			legTime := in.Travel.Time(lastLoc, in.Points[q].Loc)
			tgt := int32(-1)
			for e := lo; e < hi; e++ {
				nt := cur.ents[e].time + legTime
				if nt > d.expiry[q] {
					continue
				}
				slack := cur.ents[e].slack
				if r := d.expiry[q] - nt; r < slack {
					slack = r
				}
				if tgt < 0 {
					copy(d.key, set)
					d.key[q>>6] |= 1 << (q & 63)
					d.key[nw] = uint64(q)
					var fresh bool
					if tgt, fresh = nxt.tab.find(d.key); fresh {
						d.nodes.add()
					}
				}
				d.nodes.insert(tgt, nt, slack, e)
			}
		}
	}

	// Compact the live entries, node by node in creation order.
	ents := make([]entry, 0, d.nodes.live())
	nxt.first = nxt.first[:0]
	for id, h := range d.nodes.head {
		nxt.first = append(nxt.first, int32(len(ents)))
		last := int32(nxt.tab.key(int32(id))[nw])
		for i := h; i >= 0; i = d.nodes.pool[i].next {
			p := &d.nodes.pool[i]
			ents = append(ents, entry{time: p.time, slack: p.slack, parent: p.parent, point: last})
		}
	}
	nxt.first = append(nxt.first, int32(len(ents)))
	nxt.ents = ents
	d.ents = append(d.ents, ents)
	return nil
}

// emit merges the d.cur level's nodes into one candidate per set, applying
// dominance across the set's nodes in creation order, orders the candidates
// lexicographically and appends them to d.out, backed by fresh slabs. It
// returns the number of candidates the level produced.
func (d *dp) emit(size int) int {
	cur, nw := &d.cur, d.nw
	ct := &d.ctab
	ct.reset(nw)
	d.cands.reset()
	for s := int32(0); int(s) < cur.tab.len(); s++ {
		set := cur.tab.key(s)[:nw]
		if d.changed != nil && !bitset.Set(set).Intersects(d.changed) {
			continue
		}
		c, fresh := ct.find(set)
		if fresh {
			d.cands.add()
		}
		for e := cur.first[s]; e < cur.first[s+1]; e++ {
			d.cands.insert(c, cur.ents[e].time, cur.ents[e].slack, e)
		}
	}
	k := ct.len()
	if k == 0 {
		return 0
	}
	d.order = d.order[:0]
	for c := int32(0); int(c) < k; c++ {
		d.order = append(d.order, c)
	}
	slices.SortFunc(d.order, func(a, b int32) int { return lexCmp(ct.key(a), ct.key(b)) })

	nf := d.cands.live()
	pts := make([]int, 0, k*size)
	masks := make(bitset.Set, 0, k*nw)
	front := make([]State, 0, nf)
	seqs := make([]int, 0, nf*size)
	d.out = grow(d.out, k)
	for _, c := range d.order {
		words := ct.key(c)
		var cand Candidate
		i := len(pts)
		for wi, w := range words {
			for ; w != 0; w &= w - 1 {
				p := wi*64 + bits.TrailingZeros64(w)
				pts = append(pts, p)
				cand.Reward += d.reward[p]
			}
		}
		cand.Points = pts[i:len(pts):len(pts)]
		// Trim the mask to its last non-empty word, as bitset.Of builds it.
		tl := nw
		for tl > 1 && words[tl-1] == 0 {
			tl--
		}
		cand.Mask, masks = appendClip(masks, bitset.Set(words[:tl]))

		// The frontier by ascending time: a handful of states with distinct
		// times, so an insertion sort.
		fr := d.fr[:0]
		for n := d.cands.head[c]; n >= 0; n = d.cands.pool[n].next {
			fr = append(fr, n)
			for j := len(fr) - 1; j > 0 && d.cands.pool[fr[j]].time < d.cands.pool[fr[j-1]].time; j-- {
				fr[j], fr[j-1] = fr[j-1], fr[j]
			}
		}
		d.fr = fr
		i = len(front)
		for _, n := range fr {
			st := &d.cands.pool[n]
			j := len(seqs)
			seqs = seqs[:j+size]
			seq := seqs[j : j+size : j+size]
			for lv, x := size-1, st.parent; lv >= 0; lv-- {
				en := &d.ents[lv][x]
				seq[lv] = int(en.point)
				x = en.parent
			}
			front = append(front, State{Seq: seq, Time: st.time, Slack: st.slack})
		}
		cand.Frontier = front[i:len(front):len(front)]
		d.out = append(d.out, cand)
	}
	return k
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
