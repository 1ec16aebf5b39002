package vdps

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"fairtask/internal/bitset"
	"fairtask/internal/model"
	"fairtask/internal/obs"
)

// SampleOptions configure GenerateSampled.
type SampleOptions struct {
	// Epsilon is the distance-constrained pruning threshold; zero or +Inf
	// disables it, as in Options.
	Epsilon float64
	// MaxSize caps route length. Zero means no cap (all points).
	MaxSize int
	// Samples is the number of randomized routes grown from each feasible
	// starting point. Zero means the default of 8.
	Samples int
	// Branch is how many of the nearest feasible successors the growth step
	// chooses among at random. Zero means the default of 3.
	Branch int
	// Seed drives the randomized growth.
	Seed int64
}

// GenerateSampled builds a candidate pool by randomized greedy route growth
// instead of exhaustive subset enumeration. It exists for instances where
// workers accept long routes (large or unlimited maxDP), for which the
// exact dynamic program of Generate is exponential. Every returned
// candidate is a genuine C-VDPS with an exactly feasible sequence, but the
// pool is a sample: optimality of per-set sequences and completeness of the
// set space are not guaranteed.
//
// Growth rule: from each feasible singleton start, Samples routes are grown;
// each step considers the unvisited points within Epsilon of the route's
// last point that can still be reached before their deadlines, and picks
// uniformly among the Branch nearest. Every prefix of every grown route is
// recorded as a candidate.
func GenerateSampled(in *model.Instance, opt SampleOptions) (*Generator, error) {
	return GenerateSampledContext(context.Background(), in, opt)
}

// GenerateSampledContext is GenerateSampled with cancellation: ctx is
// checked once per starting point, returning ctx.Err() when it is done.
func GenerateSampledContext(ctx context.Context, in *model.Instance, opt SampleOptions) (*Generator, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	_, sp := obs.StartSpan(ctx, "vdps.sample")
	defer sp.End()
	if err := fpSample.Hit(ctx); err != nil {
		return nil, fmt.Errorf("vdps: sample: %w", err)
	}
	eps := opt.Epsilon
	if eps <= 0 {
		eps = math.Inf(1)
	}
	maxSize := opt.MaxSize
	if maxSize <= 0 || maxSize > len(in.Points) {
		maxSize = len(in.Points)
	}
	samples := opt.Samples
	if samples <= 0 {
		samples = 8
	}
	branch := opt.Branch
	if branch <= 0 {
		branch = 3
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	n := len(in.Points)
	expiry := make([]float64, n)
	for i := range in.Points {
		expiry[i] = in.Points[i].EarliestExpiry()
	}

	g := &Generator{inst: in, opt: Options{Epsilon: opt.Epsilon, MaxSize: maxSize}}
	g.stats.MaxSetSize = maxSize
	// Candidates are keyed on their set's words; fronts[id] is the frontier
	// of the set with table id.
	var tab wordTable
	tab.reset((n + 63) / 64)
	var fronts [][]State
	record := func(set bitset.Set, seq model.Route, time, slack float64) {
		id, fresh := tab.find(set)
		if fresh {
			fronts = append(fronts, nil)
		}
		fronts[id] = mergeFrontier(fronts[id], State{Seq: seq.Clone(), Time: time, Slack: slack})
	}

	type step struct {
		point int
		dist  float64
	}
	for start := 0; start < n; start++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := in.Travel.Time(in.Center, in.Points[start].Loc)
		if t0 > expiry[start] {
			continue
		}
		for s := 0; s < samples; s++ {
			seq := model.Route{start}
			visited := bitset.New(n).With(start)
			time := t0
			slack := expiry[start] - t0
			record(visited, seq, time, slack)
			for len(seq) < maxSize {
				last := seq[len(seq)-1]
				lastLoc := in.Points[last].Loc
				var feasible []step
				for q := 0; q < n; q++ {
					if visited.Has(q) {
						continue
					}
					d := in.Travel.Distance(lastLoc, in.Points[q].Loc)
					if d > eps {
						continue
					}
					if time+in.Travel.Time(lastLoc, in.Points[q].Loc) > expiry[q] {
						continue
					}
					feasible = append(feasible, step{q, d})
				}
				if len(feasible) == 0 {
					break
				}
				sort.Slice(feasible, func(i, j int) bool {
					return feasible[i].dist < feasible[j].dist
				})
				k := branch
				if k > len(feasible) {
					k = len(feasible)
				}
				next := feasible[rng.Intn(k)].point
				legTime := in.Travel.Time(lastLoc, in.Points[next].Loc)
				time += legTime
				if room := expiry[next] - time; room < slack {
					slack = room
				}
				seq = append(seq, next)
				visited = visited.With(next)
				record(visited, seq, time, slack)
			}
			g.stats.SubsetsExplored += len(seq)
		}
	}

	g.candidates = tableCandidates(in, &tab, fronts)
	g.finish()
	return g, nil
}

// tableCandidates builds the candidate table from a word-keyed set table and
// its frontiers, in the (size, lexicographic points) order. Masks are backed
// by the table's key array.
func tableCandidates(in *model.Instance, tab *wordTable, fronts [][]State) []Candidate {
	ids := make([]int32, tab.len())
	size := make([]int, tab.len())
	for i := range ids {
		ids[i] = int32(i)
		size[i] = bitset.Set(tab.key(int32(i))).Count()
	}
	slices.SortFunc(ids, func(a, b int32) int {
		if size[a] != size[b] {
			return size[a] - size[b]
		}
		return lexCmp(tab.key(a), tab.key(b))
	})
	cands := make([]Candidate, len(ids))
	for i, id := range ids {
		mask := bitset.Set(tab.key(id))
		pts := mask.Values()
		var reward float64
		for _, p := range pts {
			reward += in.Points[p].TotalReward()
		}
		sortFrontier(fronts[id])
		cands[i] = Candidate{Points: pts, Mask: mask, Frontier: fronts[id], Reward: reward}
	}
	return cands
}

// wordTable is an open-addressed hash set of fixed-width word keys, the
// sampler's table of the sets it has recorded. Keys get dense ids in
// insertion order, and key id lives at keys[id*width : (id+1)*width], so the
// table doubles as the flat array of the sets it indexes.
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
