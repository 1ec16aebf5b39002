package vdps

import (
	"context"
	"fmt"
	"math"
	"math/rand"
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
	byCand := map[string]*Candidate{}

	record := func(seq model.Route, time, slack float64) {
		set := bitset.New(n)
		for _, p := range seq {
			set = set.With(p)
		}
		key := set.Key()
		c := byCand[key]
		if c == nil {
			pts := set.Values()
			var reward float64
			for _, p := range pts {
				reward += in.Points[p].TotalReward()
			}
			c = &Candidate{Points: pts, Mask: set, Reward: reward}
			byCand[key] = c
		}
		c.Frontier = mergeFrontier(c.Frontier, State{
			Seq: seq.Clone(), Time: time, Slack: slack,
		})
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
			record(seq, time, slack)
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
				record(seq, time, slack)
			}
			g.stats.SubsetsExplored += len(seq)
		}
	}

	g.finalizeCandidates(byCand)
	return g, nil
}
