package vdps

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"

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
	eps := epsilon(g.opt)
	nb := g.neighborhoods()
	// Each recorded set is keyed on its words' bytes; cands[ids[key]] is its
	// candidate, whose frontier grows as sequences of the set are recorded.
	ids := map[string]int{}
	var key []byte
	var cands []Candidate
	record := func(set bitset.Set, seq model.Route, time, slack float64) {
		key = key[:0]
		for _, w := range set {
			key = binary.LittleEndian.AppendUint64(key, w)
		}
		id, ok := ids[string(key)]
		if !ok {
			id = len(cands)
			ids[string(key)] = id
			cands = append(grow(cands, 1), Candidate{Mask: set.Clone()})
		}
		c := &cands[id]
		c.Frontier = mergeFrontier(c.Frontier, State{Seq: seq.Clone(), Time: time, Slack: slack})
	}

	// A growth step's feasible successors: the index into the last point's
	// successor list and the leg's distance.
	type step struct {
		k    int
		dist float64
	}
	var feasible []step
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
				succ, lg := nb.at(last)
				feasible = feasible[:0]
				for k, q := range succ {
					if visited.Has(q) || lg[k].dist > eps || time+lg[k].time > expiry[q] {
						continue
					}
					feasible = append(feasible, step{k, lg[k].dist})
				}
				if len(feasible) == 0 {
					break
				}
				slices.SortFunc(feasible, func(a, b step) int { return cmp.Compare(a.dist, b.dist) })
				k := feasible[rng.Intn(min(branch, len(feasible)))].k
				next := succ[k]
				time += lg[k].time
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

	for i := range cands {
		c := &cands[i]
		c.Points = c.Mask.Values()
		for _, p := range c.Points {
			c.Reward += in.Points[p].TotalReward()
		}
		sortFrontier(c.Frontier)
	}
	slices.SortFunc(cands, func(a, b Candidate) int { return candCompare(&a, &b) })
	g.candidates = cands
	g.finish()
	return g, nil
}
