package vdps

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"fairtask/internal/bitset"
	"fairtask/internal/dataset"
	"fairtask/internal/geo"
	"fairtask/internal/model"
)

// referenceGenerate is the map-based C-VDPS dynamic program the flat-arena
// kernel replaced, kept as a test-only oracle (the role game.ReferenceFGT
// plays for FGT). DP nodes live in a map keyed by a string of the set's
// words plus the last point, candidates in a map keyed by the set, and every
// extension clones its sequence. On an exact (Time, Slack) tie the survivor
// depends on map iteration order, so it is only comparable to the kernel on
// tie-free inputs.
func referenceGenerate(ctx context.Context, in *model.Instance, opt Options) (*Generator, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("vdps: %w", err)
	}
	maxSize := EffectiveMaxSize(in, opt)
	eps := opt.Epsilon
	if eps <= 0 {
		eps = math.Inf(1)
	}

	g := &Generator{inst: in, opt: opt}
	g.stats.MaxSetSize = maxSize

	n := len(in.Points)
	expiry := make([]float64, n)
	for i := range in.Points {
		expiry[i] = in.Points[i].EarliestExpiry()
	}
	// Each point's ε-ball by a scan of every point, independent of the
	// generator's cell index.
	var neighbors [][]int
	if !math.IsInf(eps, 1) && !opt.DisableIndex && n > 0 {
		neighbors = make([][]int, n)
		for i := range in.Points {
			for j := range in.Points {
				if (geo.Euclidean{}).Distance(in.Points[i].Loc, in.Points[j].Loc) <= eps {
					neighbors[i] = append(neighbors[i], j)
				}
			}
		}
	}

	level := make([]*refState, 0, n)
	byCand := map[string]*Candidate{}
	for j := 0; j < n; j++ {
		t := in.Travel.Time(in.Center, in.Points[j].Loc)
		if t > expiry[j] {
			continue
		}
		st := State{Seq: model.Route{j}, Time: t, Slack: expiry[j] - t}
		ds := &refState{set: bitset.Of(j), last: j, frontier: []State{st}}
		level = append(level, ds)
		g.stats.SubsetsExplored++
		refAddCandidate(in, byCand, ds)
	}

	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	for size := 2; size <= maxSize && len(level) > 0; size++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next, pruned := refExpandLevel(ctx, in, level, all, neighbors, expiry, eps)
		g.stats.ExtensionsPruned += pruned
		g.stats.SubsetsExplored += len(next)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		level = level[:0]
		for _, ds := range next {
			level = append(level, ds)
			refAddCandidate(in, byCand, ds)
			if opt.MaxSets > 0 && len(byCand) > opt.MaxSets {
				return nil, fmt.Errorf("%w: more than %d", ErrTooManySets, opt.MaxSets)
			}
		}
	}

	g.candidates = make([]Candidate, 0, len(byCand))
	for _, c := range byCand {
		sortFrontier(c.Frontier)
		g.candidates = append(g.candidates, *c)
	}
	sort.Slice(g.candidates, func(i, j int) bool {
		return candCompare(&g.candidates[i], &g.candidates[j]) < 0
	})
	g.finish()
	return g, nil
}

// refKey is a canonical string for a set: its words up to the last non-zero
// one, little-endian bytes.
func refKey(s bitset.Set) string {
	end := len(s)
	for end > 0 && s[end-1] == 0 {
		end--
	}
	var sb strings.Builder
	for _, w := range s[:end] {
		for b := 0; b < 64; b += 8 {
			sb.WriteByte(byte(w >> b))
		}
	}
	return sb.String()
}

type refStateKey struct {
	set  string
	last int
}

// refState is a node in the reference DP: a (set, last) pair with its Pareto
// frontier of (time, slack, sequence) entries.
type refState struct {
	set      bitset.Set
	last     int
	frontier []State
}

func (ds *refState) insert(st State) {
	ds.frontier = mergeFrontier(ds.frontier, st)
}

func refAddCandidate(in *model.Instance, byCand map[string]*Candidate, ds *refState) {
	key := refKey(ds.set)
	c := byCand[key]
	if c == nil {
		pts := ds.set.Values()
		var reward float64
		for _, p := range pts {
			reward += in.Points[p].TotalReward()
		}
		c = &Candidate{Points: pts, Reward: reward}
		byCand[key] = c
	}
	for _, st := range ds.frontier {
		c.Frontier = mergeFrontier(c.Frontier, st)
	}
}

func refExpandLevel(ctx context.Context, in *model.Instance, level []*refState, all []int,
	neighbors [][]int, expiry []float64, eps float64) (map[refStateKey]*refState, int) {
	n := len(in.Points)
	next := map[refStateKey]*refState{}
	var pruned int
	for di, ds := range level {
		if di&0x3f == 0 && ctx.Err() != nil {
			return next, pruned
		}
		lastLoc := in.Points[ds.last].Loc
		succ := all
		if neighbors != nil {
			succ = neighbors[ds.last]
			// Every unvisited point outside the ε-ball is pruned, as the full
			// scan counts it.
			for q := 0; q < n; q++ {
				if !ds.set.Has(q) && !slices.Contains(succ, q) {
					pruned++
				}
			}
		}
		for _, q := range succ {
			if ds.set.Has(q) {
				continue
			}
			leg := in.Travel.Distance(lastLoc, in.Points[q].Loc)
			if leg > eps {
				pruned++
				continue
			}
			legTime := in.Travel.Time(lastLoc, in.Points[q].Loc)
			for _, st := range ds.frontier {
				nt := st.Time + legTime
				if nt > expiry[q] {
					continue
				}
				slack := st.Slack
				if s := expiry[q] - nt; s < slack {
					slack = s
				}
				newSet := ds.set.Clone().With(q)
				key := refStateKey{set: refKey(newSet), last: q}
				tgt := next[key]
				if tgt == nil {
					tgt = &refState{set: newSet, last: q}
					next[key] = tgt
				}
				seq := append(st.Seq.Clone(), q)
				tgt.insert(State{Seq: seq, Time: nt, Slack: slack})
			}
		}
	}
	return next, pruned
}

// cancelAfter is a context whose Err turns context.Canceled on its n-th call,
// cancelling a generation at any one of its polls; polls counts the calls.
type cancelAfter struct {
	context.Context
	n, polls int
}

func (c *cancelAfter) Err() error {
	if c.polls++; c.n > 0 && c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestGenerateMatchesReference pins the flat-arena kernel against the
// map-based DP it replaced on tie-free GM instances: the same candidate
// table, masks, frontiers (sequences included), caches, worker strategy
// spaces and Stats; the same ErrTooManySets; and no partial result on
// cancellation.
func TestGenerateMatchesReference(t *testing.T) {
	gm := func(seed int64, tasks, workers, points int) *model.Instance {
		in, err := dataset.GenerateGM(dataset.GMConfig{
			Seed: seed, Tasks: tasks, Workers: workers, DeliveryPoints: points,
		})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	stream := gm(7, 360, 8, 120)
	small := gm(1, 200, 40, 60)
	cases := []struct {
		name string
		in   *model.Instance
		opt  Options
	}{
		{"w200", gm(1, 1000, 200, 150), Options{Epsilon: 0.6}},
		{"stream", stream, Options{Epsilon: 1.5}},
		{"unpruned", small, Options{}},
		{"maxsize4", small, Options{Epsilon: 0.6, MaxSize: 4}},
		{"noindex", stream, Options{Epsilon: 1.5, DisableIndex: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Generate(tc.in, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceGenerate(context.Background(), tc.in, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			assertGeneratorsEqual(t, got, want)
			if got.Stats() != want.Stats() {
				t.Fatalf("stats %+v, want %+v", got.Stats(), want.Stats())
			}
		})
	}

	t.Run("maxsets", func(t *testing.T) {
		opt := Options{Epsilon: 1.5, MaxSets: 500}
		_, err := Generate(stream, opt)
		_, want := referenceGenerate(context.Background(), stream, opt)
		if !errors.Is(err, ErrTooManySets) || want == nil || err.Error() != want.Error() {
			t.Fatalf("err %v, want %v", err, want)
		}
	})

	t.Run("canceled", func(t *testing.T) {
		opt := Options{Epsilon: 0.6, MaxSize: 4}
		live := &cancelAfter{Context: context.Background()}
		if _, err := GenerateContext(live, small, opt); err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= live.polls; n++ {
			g, err := GenerateContext(&cancelAfter{Context: context.Background(), n: n}, small, opt)
			rg, rerr := referenceGenerate(&cancelAfter{Context: context.Background(), n: n}, small, opt)
			if g != nil || !errors.Is(err, context.Canceled) || rg != nil || !errors.Is(rerr, context.Canceled) {
				t.Fatalf("cancel at poll %d of %d: got (%v, %v), reference (%v, %v)",
					n, live.polls, g != nil, err, rg != nil, rerr)
			}
		}
	})
}
