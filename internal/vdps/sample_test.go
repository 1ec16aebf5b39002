package vdps

import (
	"math"
	"math/rand"
	"testing"

	"fairtask/internal/geo"
	"fairtask/internal/model"
	"fairtask/internal/travel"
)

func sampleInstance(n int, seed int64) *model.Instance {
	in := &model.Instance{
		Center: geo.Pt(0, 0),
		Travel: travel.MustModel(geo.Euclidean{}, 1),
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		in.Points = append(in.Points, model.DeliveryPoint{
			ID:  i,
			Loc: geo.Pt(rng.Float64()*8-4, rng.Float64()*8-4),
			Tasks: []model.Task{
				{ID: i, Point: i, Expiry: 4 + rng.Float64()*8, Reward: 1},
			},
		})
	}
	in.Workers = []model.Worker{{ID: 0, Loc: geo.Pt(0.5, 0.5)}} // unlimited maxDP
	return in
}

func TestGenerateSampledValidity(t *testing.T) {
	in := sampleInstance(25, 1)
	g, err := GenerateSampled(in, SampleOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Candidates()) == 0 {
		t.Fatal("no sampled candidates")
	}
	// Every frontier sequence must be a genuinely feasible center-origin
	// route with consistent time and slack.
	for _, c := range g.Candidates() {
		for _, st := range c.Frontier {
			if len(st.Seq) != len(c.Points) {
				t.Fatalf("sequence %v does not cover set %v", st.Seq, c.Points)
			}
			time := 0.0
			prev := in.Center
			slack := math.Inf(1)
			for _, p := range st.Seq {
				time += in.Travel.Time(prev, in.Points[p].Loc)
				prev = in.Points[p].Loc
				if room := in.Points[p].EarliestExpiry() - time; room < slack {
					slack = room
				}
			}
			if slack < 0 {
				t.Fatalf("infeasible sampled sequence %v", st.Seq)
			}
			if math.Abs(time-st.Time) > 1e-9 || math.Abs(slack-st.Slack) > 1e-9 {
				t.Fatalf("sequence %v: stored (%g, %g) vs recomputed (%g, %g)",
					st.Seq, st.Time, st.Slack, time, slack)
			}
		}
	}
}

// On small instances every sampled set must also appear in the exhaustive
// generation, with a time no better than the exact optimum for that set.
func TestGenerateSampledSubsetOfExact(t *testing.T) {
	in := sampleInstance(7, 3)
	in.Workers[0].MaxDP = 3
	exact, err := Generate(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := GenerateSampled(in, SampleOptions{MaxSize: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	exactBySet := map[string]*Candidate{}
	for i := range exact.Candidates() {
		c := &exact.Candidates()[i]
		exactBySet[setKeyOf(c.Points)] = c
	}
	for _, c := range sampled.Candidates() {
		e, ok := exactBySet[setKeyOf(c.Points)]
		if !ok {
			t.Fatalf("sampled set %v not found by exact generation", c.Points)
		}
		if c.MinTime() < e.MinTime()-1e-9 {
			t.Fatalf("sampled set %v min time %g beats exact %g",
				c.Points, c.MinTime(), e.MinTime())
		}
	}
}

// The sampler makes unlimited-maxDP instances tractable where the exact DP
// would enumerate 2^n subsets: here 40 points with no cap.
func TestGenerateSampledScales(t *testing.T) {
	in := sampleInstance(40, 5)
	g, err := GenerateSampled(in, SampleOptions{Seed: 6, Samples: 4})
	if err != nil {
		t.Fatal(err)
	}
	ws := g.ForWorker(0)
	if len(ws) == 0 {
		t.Fatal("worker has no sampled strategies")
	}
	// Some multi-point strategies should exist.
	multi := 0
	for _, s := range ws {
		if len(s.Seq) > 3 {
			multi++
		}
		if !in.RouteFeasible(0, s.Seq) {
			t.Fatalf("sampled strategy %v infeasible", s.Seq)
		}
	}
	if multi == 0 {
		t.Error("sampler produced no long routes despite unlimited maxDP")
	}
}

func TestGenerateSampledDeterministic(t *testing.T) {
	in := sampleInstance(15, 7)
	a, err := GenerateSampled(in, SampleOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSampled(in, SampleOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Candidates()) != len(b.Candidates()) {
		t.Error("same seed, different candidate counts")
	}
}

func TestGenerateSampledRejectsInvalid(t *testing.T) {
	in := sampleInstance(3, 1)
	in.Workers[0].MaxDP = -1
	if _, err := GenerateSampled(in, SampleOptions{}); err == nil {
		t.Error("invalid instance accepted")
	}
}
