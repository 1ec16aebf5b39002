package vdps

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"fairtask/internal/geo"
	"fairtask/internal/model"
	"fairtask/internal/travel"
)

// lineInstance places nPoints delivery points at x = 1..n on the x axis,
// center at the origin, one worker at (-1, 0), unit speed, one unit-reward
// task per point with the given expiry.
func lineInstance(nPoints int, expiry float64, maxDP int) *model.Instance {
	in := &model.Instance{
		Center: geo.Pt(0, 0),
		Travel: travel.MustModel(geo.Euclidean{}, 1),
	}
	for i := 0; i < nPoints; i++ {
		in.Points = append(in.Points, model.DeliveryPoint{
			ID:  i,
			Loc: geo.Pt(float64(i+1), 0),
			Tasks: []model.Task{
				{ID: i, Point: i, Expiry: expiry, Reward: 1},
			},
		})
	}
	in.Workers = []model.Worker{{ID: 0, Loc: geo.Pt(-1, 0), MaxDP: maxDP}}
	return in
}

func TestGenerateSingletons(t *testing.T) {
	in := lineInstance(3, 100, 1)
	g, err := Generate(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// maxDP 1 -> only singleton sets.
	if got := len(g.Candidates()); got != 3 {
		t.Fatalf("candidates = %d, want 3", got)
	}
	for _, c := range g.Candidates() {
		if len(c.Points) != 1 {
			t.Errorf("candidate %v has size %d, want 1", c.Points, len(c.Points))
		}
		if len(c.Frontier) != 1 {
			t.Errorf("singleton frontier size = %d", len(c.Frontier))
		}
	}
	// Point at x=2: time 2, slack 98.
	c := g.Candidates()[1]
	if c.Points[0] != 1 {
		t.Fatalf("unexpected ordering: %v", c.Points)
	}
	if math.Abs(c.MinTime()-2) > 1e-9 || math.Abs(c.MaxSlack()-98) > 1e-9 {
		t.Errorf("time/slack = %g/%g, want 2/98", c.MinTime(), c.MaxSlack())
	}
}

func TestGenerateRespectsDeadlines(t *testing.T) {
	// Expiry 2.5: singleton x=3 unreachable (arrival 3 from center).
	in := lineInstance(3, 2.5, 3)
	g, err := Generate(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range g.Candidates() {
		for _, p := range c.Points {
			if p == 2 {
				t.Errorf("candidate %v contains unreachable point 2", c.Points)
			}
		}
	}
	// {0,1} must be present (arrivals 1, 2 <= 2.5).
	found := false
	for _, c := range g.Candidates() {
		if len(c.Points) == 2 && c.Points[0] == 0 && c.Points[1] == 1 {
			found = true
			// Optimal order visits x=1 then x=2: time 2.
			if math.Abs(c.MinTime()-2) > 1e-9 {
				t.Errorf("{0,1} min time = %g, want 2", c.MinTime())
			}
		}
	}
	if !found {
		t.Error("feasible pair {0,1} not generated")
	}
}

func TestGenerateFullLine(t *testing.T) {
	in := lineInstance(4, 100, 0) // unlimited maxDP
	g, err := Generate(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// All 2^4-1 = 15 non-empty subsets are feasible with a loose deadline.
	if got := len(g.Candidates()); got != 15 {
		t.Fatalf("candidates = %d, want 15", got)
	}
	// The full set's min time is a shortest feasible path; visiting in order
	// 1,2,3,4 gives 4.
	last := g.Candidates()[len(g.Candidates())-1]
	if len(last.Points) != 4 {
		t.Fatalf("last candidate size = %d", len(last.Points))
	}
	if math.Abs(last.MinTime()-4) > 1e-9 {
		t.Errorf("full-set min time = %g, want 4", last.MinTime())
	}
}

func TestEpsilonPruning(t *testing.T) {
	// Points at x = 1, 2, 10: the leg 2->10 (8 km) exceeds eps=2, so sets
	// containing both 'near' and 'far' points cannot be built, but the far
	// singleton remains (center legs are not pruned, matching Algorithm 1's
	// |Q| = 1 base case).
	in := &model.Instance{
		Center: geo.Pt(0, 0),
		Travel: travel.MustModel(geo.Euclidean{}, 1),
	}
	for i, x := range []float64{1, 2, 10} {
		in.Points = append(in.Points, model.DeliveryPoint{
			ID: i, Loc: geo.Pt(x, 0),
			Tasks: []model.Task{{ID: i, Point: i, Expiry: 100, Reward: 1}},
		})
	}
	in.Workers = []model.Worker{{ID: 0, Loc: geo.Pt(0, 0), MaxDP: 0}}

	g, err := Generate(in, Options{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range g.Candidates() {
		if len(c.Points) > 1 && c.Mask.Has(2) {
			t.Errorf("pruned generation produced %v containing the far point", c.Points)
		}
	}
	hasFarSingleton := false
	for _, c := range g.Candidates() {
		if len(c.Points) == 1 && c.Points[0] == 2 {
			hasFarSingleton = true
		}
	}
	if !hasFarSingleton {
		t.Error("far singleton should survive pruning")
	}
	if g.Stats().ExtensionsPruned == 0 {
		t.Error("expected pruned extensions to be counted")
	}

	// Without pruning, the mixed sets exist.
	gw, err := Generate(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(gw.Candidates()) <= len(g.Candidates()) {
		t.Errorf("unpruned candidates (%d) should exceed pruned (%d)",
			len(gw.Candidates()), len(g.Candidates()))
	}
}

func TestMaxSetsLimit(t *testing.T) {
	in := lineInstance(6, 100, 0)
	if _, err := Generate(in, Options{MaxSets: 5}); err == nil {
		t.Error("expected ErrTooManySets")
	}
}

func TestGenerateRejectsInvalidInstance(t *testing.T) {
	in := lineInstance(2, 100, 1)
	in.Workers[0].MaxDP = -1
	if _, err := Generate(in, Options{}); err == nil {
		t.Error("invalid instance accepted")
	}
}

func TestForWorker(t *testing.T) {
	in := lineInstance(3, 100, 2)
	g, err := Generate(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ws := g.ForWorker(0)
	if len(ws) == 0 {
		t.Fatal("worker has no strategies")
	}
	// Ordered by descending payoff.
	for i := 1; i < len(ws); i++ {
		if ws[i].Payoff > ws[i-1].Payoff+1e-12 {
			t.Errorf("strategies not sorted: %g before %g", ws[i-1].Payoff, ws[i].Payoff)
		}
	}
	// maxDP = 2: no strategy with 3 points.
	for _, s := range ws {
		if len(s.Seq) > 2 {
			t.Errorf("strategy %v exceeds maxDP", s.Seq)
		}
		// Payoff consistency.
		if math.Abs(s.Payoff-s.Reward/s.Time) > 1e-9 {
			t.Errorf("payoff inconsistent: %g vs %g", s.Payoff, s.Reward/s.Time)
		}
		// Every strategy must be feasible for the worker.
		if !in.RouteFeasible(0, s.Seq) {
			t.Errorf("strategy %v infeasible for worker", s.Seq)
		}
	}
	// Best strategy for the line with approach 1: {0,1} visited 1,2 ->
	// reward 2 / time 3 = 0.667 beats {0} (1/2) and {0,1,2} excluded by maxDP.
	best := ws[0]
	if math.Abs(best.Payoff-2.0/3) > 1e-9 {
		t.Errorf("best payoff = %g, want 2/3", best.Payoff)
	}
}

func TestForWorkerApproachFiltering(t *testing.T) {
	// Deadline 3: center-origin route to x=2 arrives at 2 (slack 1 at best).
	// A worker 2 km from the center (approach 2) cannot use it; a worker at
	// the center can.
	in := lineInstance(2, 3, 0)
	in.Workers = []model.Worker{
		{ID: 0, Loc: geo.Pt(0, 0)},
		{ID: 1, Loc: geo.Pt(-2, 0)},
	}
	g, err := Generate(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	atCenter := g.ForWorker(0)
	far := g.ForWorker(1)
	if len(atCenter) <= len(far) {
		t.Errorf("worker at center has %d strategies, far worker %d; want strictly more",
			len(atCenter), len(far))
	}
	for _, s := range far {
		if !in.RouteFeasible(1, s.Seq) {
			t.Errorf("far worker given infeasible strategy %v", s.Seq)
		}
	}
}

// bruteCandidate enumerates all feasible center-origin sequences for subsets
// up to maxSize by explicit permutation search and returns, per set key, the
// best (minimal) time achievable for a given approach offset.
func bruteBestTime(in *model.Instance, maxSize int, eps float64, approach float64) map[string]float64 {
	n := len(in.Points)
	if eps <= 0 {
		eps = math.Inf(1)
	}
	best := map[string]float64{}
	var rec func(seq []int, used map[int]bool, t float64, ok bool)
	rec = func(seq []int, used map[int]bool, t float64, ok bool) {
		if len(seq) > 0 && ok {
			key := setKeyOf(seq)
			if prev, exists := best[key]; !exists || t < prev {
				best[key] = t
			}
		}
		if len(seq) == maxSize {
			return
		}
		for q := 0; q < n; q++ {
			if used[q] {
				continue
			}
			var legT float64
			pruned := false
			if len(seq) == 0 {
				legT = in.Travel.Time(in.Center, in.Points[q].Loc)
			} else {
				lastLoc := in.Points[seq[len(seq)-1]].Loc
				if in.Travel.Distance(lastLoc, in.Points[q].Loc) > eps {
					pruned = true
				}
				legT = in.Travel.Time(lastLoc, in.Points[q].Loc)
			}
			if pruned {
				continue
			}
			nt := t + legT
			feasible := ok && approach+nt <= in.Points[q].EarliestExpiry()
			used[q] = true
			rec(append(seq, q), used, nt, feasible)
			used[q] = false
		}
	}
	rec(nil, map[int]bool{}, 0, true)
	return best
}

func setKeyOf(seq []int) string {
	present := make([]bool, 64)
	for _, p := range seq {
		present[p] = true
	}
	key := make([]byte, 64)
	for i, b := range present {
		if b {
			key[i] = '1'
		} else {
			key[i] = '0'
		}
	}
	return string(key)
}

// TestAgainstBruteForce cross-checks the DP against explicit permutation
// enumeration on random instances, with and without pruning.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(4) // 3..6 points
		in := &model.Instance{
			Center: geo.Pt(5, 5),
			Travel: travel.MustModel(geo.Euclidean{}, 1),
		}
		for i := 0; i < n; i++ {
			in.Points = append(in.Points, model.DeliveryPoint{
				ID:  i,
				Loc: geo.Pt(rng.Float64()*10, rng.Float64()*10),
				Tasks: []model.Task{{
					ID: i, Point: i,
					Expiry: 2 + rng.Float64()*10,
					Reward: 1,
				}},
			})
		}
		in.Workers = []model.Worker{{ID: 0, Loc: geo.Pt(rng.Float64()*10, rng.Float64()*10), MaxDP: 0}}
		eps := math.Inf(1)
		if trial%2 == 1 {
			eps = 2 + rng.Float64()*4
		}
		maxSize := 3

		g, err := Generate(in, Options{Epsilon: eps, MaxSize: maxSize})
		if err != nil {
			t.Fatal(err)
		}
		approach := in.ApproachTime(0)
		want := bruteBestTime(in, maxSize, eps, approach)

		got := map[string]float64{}
		for _, s := range g.ForWorker(0) {
			got[setKeyOf(s.Seq)] = s.Time - approach
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: DP found %d worker-valid sets, brute force %d",
				trial, len(got), len(want))
		}
		for key, wt := range want {
			gt, ok := got[key]
			if !ok {
				t.Fatalf("trial %d: brute-force set %s missing from DP", trial, key)
			}
			if math.Abs(gt-wt) > 1e-9 {
				t.Errorf("trial %d: set %s time %g (DP) vs %g (brute)", trial, key, gt, wt)
			}
		}
	}
}

// TestFrontierInvariant checks every frontier is sorted and non-dominated.
func TestFrontierInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	in := &model.Instance{
		Center: geo.Pt(0, 0),
		Travel: travel.MustModel(geo.Euclidean{}, 1),
	}
	for i := 0; i < 6; i++ {
		in.Points = append(in.Points, model.DeliveryPoint{
			ID: i, Loc: geo.Pt(rng.Float64()*4-2, rng.Float64()*4-2),
			Tasks: []model.Task{{ID: i, Point: i, Expiry: 1 + rng.Float64()*5, Reward: 1}},
		})
	}
	in.Workers = []model.Worker{{ID: 0, Loc: geo.Pt(1, 1), MaxDP: 4}}
	g, err := Generate(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range g.Candidates() {
		f := c.Frontier
		if len(f) == 0 {
			t.Fatalf("candidate %v has empty frontier", c.Points)
		}
		for i := 1; i < len(f); i++ {
			if f[i].Time < f[i-1].Time {
				t.Errorf("frontier not time-sorted for %v", c.Points)
			}
			if f[i].Slack <= f[i-1].Slack {
				t.Errorf("frontier slacks not strictly increasing for %v", c.Points)
			}
		}
		// Every frontier sequence visits exactly the candidate's set.
		for _, st := range f {
			if setKeyOf(st.Seq) != setKeyOf(c.Points) {
				t.Errorf("sequence %v does not cover set %v", st.Seq, c.Points)
			}
		}
	}
}

func TestBestFor(t *testing.T) {
	c := Candidate{Frontier: []State{
		{Time: 1, Slack: 0.5},
		{Time: 2, Slack: 2},
	}}
	if fi, ok := c.bestForIndex(0.3); !ok || fi != 0 {
		t.Errorf("bestForIndex(0.3) = %d, %v", fi, ok)
	}
	if fi, ok := c.bestForIndex(1); !ok || fi != 1 {
		t.Errorf("bestForIndex(1) = %d, %v", fi, ok)
	}
	if _, ok := c.bestForIndex(3); ok {
		t.Error("bestForIndex(3) should fail")
	}
	if _, ok := (&Candidate{}).bestForIndex(math.Inf(-1)); ok {
		t.Error("an empty frontier should fit no approach time")
	}
}

// TestIndexMatchesScan verifies that the DP's successor lists change no
// result: the grid index's ε-ball lists and, with DisableIndex, the
// every-point lists produce exactly the same candidates — the same sets,
// frontier sequences and the bits of every time and slack — and the same
// Stats. Both take their legs from appendLegs, cached for the ε-ball lists
// and computed per row for the every-point lists, so each trial also
// compares them with referenceGenerate under DisableIndex, which asks the
// travel model for every leg: the same sets, times, slacks and Stats pin
// each leg to the model's value. Trials alternate the Euclidean and
// Manhattan metrics, at a speed that is not 1 so that a leg's time is not
// its distance. At MaxDP 5 the DP extends sets whose members lie outside the
// last point's ε-ball, which the index never enumerates.
func TestIndexMatchesScan(t *testing.T) {
	for _, maxDP := range []int{3, 5} {
		t.Run(fmt.Sprintf("maxDP=%d", maxDP), func(t *testing.T) { testIndexMatchesScan(t, maxDP) })
	}
}

func testIndexMatchesScan(t *testing.T, maxDP int) {
	rng := rand.New(rand.NewSource(77))
	metrics := []geo.Metric{geo.Euclidean{}, geo.Manhattan{}}
	for trial := 0; trial < 40; trial++ {
		in := &model.Instance{
			Center: geo.Pt(5, 5),
			Travel: travel.MustModel(metrics[trial%2], 1.7),
		}
		n := 8 + rng.Intn(8)
		for i := 0; i < n; i++ {
			in.Points = append(in.Points, model.DeliveryPoint{
				ID:  i,
				Loc: geo.Pt(rng.Float64()*10, rng.Float64()*10),
				Tasks: []model.Task{{
					ID: i, Point: i, Expiry: 3 + rng.Float64()*8, Reward: 1,
				}},
			})
		}
		in.Workers = []model.Worker{{ID: 0, Loc: geo.Pt(5, 5), MaxDP: maxDP}}
		eps := 1 + rng.Float64()*4

		indexed, err := Generate(in, Options{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		scanned, err := Generate(in, Options{Epsilon: eps, DisableIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := referenceGenerate(context.Background(), in, Options{Epsilon: eps, DisableIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		// Under Manhattan two orders of one set can tie exactly (points on
		// one monotone staircase), and the reference keeps either, so its
		// sequences are left out; every time and slack bit still is not.
		for _, side := range []struct {
			name string
			g    *Generator
			seqs bool
		}{{"every-point lists", scanned, true}, {"reference", ref, false}} {
			ci, cs := indexed.Candidates(), side.g.Candidates()
			if len(ci) != len(cs) {
				t.Fatalf("trial %d: %d candidates with index, %d from %s", trial, len(ci), len(cs), side.name)
			}
			for k := range ci {
				if setKeyOf(ci[k].Points) != setKeyOf(cs[k].Points) {
					t.Fatalf("trial %d: candidate %d set mismatch with %s", trial, k, side.name)
				}
				if len(ci[k].Frontier) != len(cs[k].Frontier) {
					t.Fatalf("trial %d: candidate %d frontier size mismatch with %s", trial, k, side.name)
				}
				for f := range ci[k].Frontier {
					a, b := ci[k].Frontier[f], cs[k].Frontier[f]
					if math.Float64bits(a.Time) != math.Float64bits(b.Time) ||
						math.Float64bits(a.Slack) != math.Float64bits(b.Slack) || side.seqs && !slices.Equal(a.Seq, b.Seq) {
						t.Fatalf("trial %d: frontier state mismatch with %s: %+v vs %+v", trial, side.name, a, b)
					}
				}
			}
			if indexed.Stats() != side.g.Stats() {
				t.Errorf("trial %d: stats differ from %s: %+v vs %+v", trial, side.name, indexed.Stats(), side.g.Stats())
			}
		}
	}
}

// TestEveryPointLegsNotKept pins the every-point lists' memory: with ε
// disabled, or DisableIndex set, a point's legs are computed into one row
// each time a reader extends from the point, so a run over n points
// allocates O(n) leg bytes, where a table of every leg would take 16·n²
// (64 MB here). The n points lie on a circle around the center, each due
// the moment it is reached, so every singleton is feasible and every
// MaxSize-2 run asks for every point's row without keeping a pair. The
// budget, 2 KiB per point, holds the n candidates: 500–570 bytes each
// from the DP, and 1.4 KiB from the sampler, whose full-width masks and set
// keys take n/8 bytes each.
func TestEveryPointLegsNotKept(t *testing.T) {
	const n = 2000
	in := &model.Instance{Center: geo.Pt(0, 0), Travel: travel.MustModel(geo.Euclidean{}, 1.7)}
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / n
		loc := geo.Pt(math.Cos(a), math.Sin(a))
		in.Points = append(in.Points, model.DeliveryPoint{
			ID:    i,
			Loc:   loc,
			Tasks: []model.Task{{ID: i, Point: i, Expiry: in.Travel.Time(in.Center, loc), Reward: 1}},
		})
	}
	in.Workers = []model.Worker{{ID: 0, Loc: in.Center, MaxDP: 2}}
	const budget = 2 << 10 * n // bytes
	for _, c := range []struct {
		name string
		gen  func() (*Generator, error)
	}{
		{"MaxSize 1", func() (*Generator, error) { return Generate(in, Options{MaxSize: 1}) }},
		{"MaxSize 2", func() (*Generator, error) { return Generate(in, Options{MaxSize: 2}) }},
		{"DisableIndex", func() (*Generator, error) { return Generate(in, Options{Epsilon: 0.5, MaxSize: 2, DisableIndex: true}) }},
		{"sampled", func() (*Generator, error) { return GenerateSampled(in, SampleOptions{MaxSize: 2, Samples: 1}) }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := c.gen()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := len(g.Candidates()); got != n {
			t.Fatalf("%s: %d candidates, want the %d singletons", c.name, got, n)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Errorf("%s: allocated %d bytes, want at most %d (2 KiB per point)", c.name, got, budget)
		}
	}
}

// latticeInstance is a tie-heavy instance: the 24 integer points of [-2,2]²
// around a center at the origin, under the Manhattan metric at speed 1, so
// many sequences of one set share their exact (time, slack).
func latticeInstance() *model.Instance {
	in := &model.Instance{
		Center: geo.Pt(0, 0),
		Travel: travel.MustModel(geo.Manhattan{}, 1),
	}
	for x := -2; x <= 2; x++ {
		for y := -2; y <= 2; y++ {
			if x == 0 && y == 0 {
				continue
			}
			id := len(in.Points)
			in.Points = append(in.Points, model.DeliveryPoint{
				ID:  id,
				Loc: geo.Pt(float64(x), float64(y)),
				Tasks: []model.Task{{
					ID: id, Point: id, Expiry: 100, Reward: float64(1 + id%3),
				}},
			})
		}
	}
	for w := 0; w < 8; w++ {
		in.Workers = append(in.Workers, model.Worker{
			ID: w, Loc: geo.Pt(float64(w%3-1), float64(w/3-1)), MaxDP: 3,
		})
	}
	return in
}

// TestGenerateDeterministicOnTies pins the tie rule: on exact (Time, Slack)
// ties the first-generated sequence survives, so repeated generations are
// identical, sequences included, and the grid index's ε-ball lists — a pure
// filter of the every-point lists' ascending order — cannot change which
// tied sequence wins.
func TestGenerateDeterministicOnTies(t *testing.T) {
	in := latticeInstance()
	gen := func(opt Options) []Candidate {
		t.Helper()
		g, err := Generate(in, opt)
		if err != nil {
			t.Fatal(err)
		}
		return g.Candidates()
	}
	for _, opt := range []Options{{}, {Epsilon: 2}, {Epsilon: 2, DisableIndex: true}} {
		want := gen(opt)
		for i := 0; i < 5; i++ {
			if got := gen(opt); !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v: generation %d differs from the first", opt, i+1)
			}
		}
	}
	if !reflect.DeepEqual(gen(Options{Epsilon: 2}), gen(Options{Epsilon: 2, DisableIndex: true})) {
		t.Fatal("disabling the index changed the generated candidates")
	}
}

// TestForWorkerHeterogeneousSpeed checks workers with speed overrides: every
// returned strategy is exactly feasible at the worker's speed, payoffs use
// the scaled travel time, and a faster worker never has fewer strategies
// than an identical slower one.
func TestForWorkerHeterogeneousSpeed(t *testing.T) {
	in := lineInstance(4, 6, 3)
	in.Workers = []model.Worker{
		{ID: 0, Loc: geo.Pt(-1, 0), MaxDP: 3},             // default speed 1
		{ID: 1, Loc: geo.Pt(-1, 0), MaxDP: 3, Speed: 0.5}, // half speed
		{ID: 2, Loc: geo.Pt(-1, 0), MaxDP: 3, Speed: 2},   // double speed
	}
	g, err := Generate(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	normal := g.ForWorker(0)
	slow := g.ForWorker(1)
	fast := g.ForWorker(2)

	if len(slow) > len(normal) || len(fast) < len(normal) {
		t.Errorf("strategy counts: slow %d, normal %d, fast %d; want slow <= normal <= fast",
			len(slow), len(normal), len(fast))
	}
	check := func(w int, ws []WorkerVDPS) {
		for _, s := range ws {
			if !in.RouteFeasible(w, s.Seq) {
				t.Errorf("worker %d: strategy %v infeasible at its speed", w, s.Seq)
			}
			if math.Abs(s.Time-in.RouteTime(w, s.Seq)) > 1e-9 {
				t.Errorf("worker %d: cached time %g != model time %g",
					w, s.Time, in.RouteTime(w, s.Seq))
			}
			if math.Abs(s.Payoff-s.Reward/s.Time) > 1e-9 {
				t.Errorf("worker %d: payoff inconsistent", w)
			}
		}
	}
	check(0, normal)
	check(1, slow)
	check(2, fast)

	// A fast worker's payoff for the same set is strictly higher.
	if len(fast) > 0 && len(normal) > 0 {
		for _, fs := range fast {
			for _, ns := range normal {
				if fs.Candidate == ns.Candidate && fs.Payoff <= ns.Payoff {
					t.Errorf("fast worker payoff %g not above normal %g for same set",
						fs.Payoff, ns.Payoff)
				}
			}
		}
	}
}

// TestWorkerStrategiesMatchForWorker pins the strategy rule to its oracle:
// WorkerStrategies, which gathers Rule.Strategy over the whole table,
// returns strictly ascending candidates, and sorting them with
// ComparePayoff gives ForWorker's list entry by entry — candidate, payoff
// bits and sequence. ForWorker states the rule and sorts with its own
// comparator, so this is the oracle for both Rule.Strategy and
// ComparePayoff (TestFeasibleForMatchesEnumeration checks Strategy against
// it one candidate at a time). The GM instances mix default-speed workers
// with speed overrides, which Strategy re-checks against the model; the
// lattice holds exact payoff ties, where only the candidate tie-break
// decides the order; and the repaired table holds tombstones, which fit no
// worker, and regenerated candidates appended after longer sets.
func TestWorkerStrategiesMatchForWorker(t *testing.T) {
	gen := func(in *model.Instance, opt Options) *Generator {
		g, err := Generate(in, opt)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// Halving one point's deadlines drops the candidates holding it and
	// regenerates those still feasible, too few to compact the table.
	in := repairGM(t, 3, 60, 8, 24)
	repaired := gen(in, Options{Epsilon: 1.5})
	mutated := in.Clone()
	p := slices.IndexFunc(mutated.Points, func(dp model.DeliveryPoint) bool { return len(dp.Tasks) > 0 })
	for i := range mutated.Points[p].Tasks {
		mutated.Points[p].Tasks[i].Expiry *= 0.5
	}
	repaired.Rebind(mutated)
	rep, err := repaired.RepairExpiries(context.Background(), []int{p})
	if err != nil {
		t.Fatal(err)
	}
	if rep.remap != nil || rep.dropped == 0 || rep.fresh == rep.end {
		t.Fatalf("repair compacted %v, dropped %d, appended %d; want tombstones and appended candidates",
			rep.remap != nil, rep.dropped, rep.end-rep.fresh)
	}

	cases := []struct {
		name string
		g    *Generator
	}{
		{"gm", gen(repairGM(t, 3, 60, 8, 24), Options{Epsilon: 1.5})},
		{"lattice", gen(latticeInstance(), Options{})},
		{"repaired", repaired},
	}
	for _, tc := range cases {
		g := tc.g
		var sc StrategyScratch
		ties, scaled := 0, 0
		for w := range g.Instance().Workers {
			refs := g.WorkerStrategies(w, &sc)
			for i := 1; i < len(refs); i++ {
				if refs[i-1].Cand >= refs[i].Cand {
					t.Fatalf("%s worker %d: candidates not strictly ascending at %d: %d then %d",
						tc.name, w, i, refs[i-1].Cand, refs[i].Cand)
				}
			}
			slices.SortFunc(refs, g.ComparePayoff)
			full := g.ForWorker(w)
			if len(refs) != len(full) {
				t.Fatalf("%s worker %d: %d compact strategies, %d full", tc.name, w, len(refs), len(full))
			}
			for i, r := range refs {
				f := full[i]
				if int(r.Cand) != f.Candidate || math.Float64bits(r.Payoff) != math.Float64bits(f.Payoff) ||
					!reflect.DeepEqual(g.RefSeq(r), f.Seq) {
					t.Fatalf("%s worker %d entry %d: compact (cand %d, payoff %v, seq %v), full (cand %d, payoff %v, seq %v)",
						tc.name, w, i, r.Cand, r.Payoff, g.RefSeq(r), f.Candidate, f.Payoff, f.Seq)
				}
				if i > 0 && r.Payoff == refs[i-1].Payoff {
					ties++
				}
			}
			if g.Instance().SpeedFactor(w) != 1 {
				scaled += len(refs)
			}
		}
		if tc.name == "lattice" && ties == 0 {
			t.Fatal("lattice: no tied payoffs; the tie-break goes untested")
		}
		if strings.HasPrefix(tc.name, "gm") && scaled == 0 {
			t.Fatalf("%s: no strategy of a speed-override worker; the scaled re-check goes untested", tc.name)
		}
	}
}

// Property: with larger epsilon, the candidate set never shrinks, and every
// pruned candidate also exists unpruned with the same minimal time.
func TestPrunedSubsetOfUnpruned(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 8; trial++ {
		in := &model.Instance{
			Center: geo.Pt(0, 0),
			Travel: travel.MustModel(geo.Euclidean{}, 1),
		}
		n := 6 + rng.Intn(4)
		for i := 0; i < n; i++ {
			in.Points = append(in.Points, model.DeliveryPoint{
				ID:  i,
				Loc: geo.Pt(rng.Float64()*8-4, rng.Float64()*8-4),
				Tasks: []model.Task{{
					ID: i, Point: i, Expiry: 3 + rng.Float64()*6, Reward: 1,
				}},
			})
		}
		in.Workers = []model.Worker{{ID: 0, Loc: geo.Pt(0, 0), MaxDP: 3}}
		eps := 1.5 + rng.Float64()*2

		pruned, err := Generate(in, Options{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		unpruned, err := Generate(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(pruned.Candidates()) > len(unpruned.Candidates()) {
			t.Fatalf("trial %d: pruned %d > unpruned %d candidates",
				trial, len(pruned.Candidates()), len(unpruned.Candidates()))
		}
		full := map[string]float64{}
		for _, c := range unpruned.Candidates() {
			full[setKeyOf(c.Points)] = c.MinTime()
		}
		for _, c := range pruned.Candidates() {
			ft, ok := full[setKeyOf(c.Points)]
			if !ok {
				t.Fatalf("trial %d: pruned-only candidate %v", trial, c.Points)
			}
			// Pruning can only remove sequences, so the pruned min time is
			// never better than the unpruned one.
			if c.MinTime() < ft-1e-9 {
				t.Fatalf("trial %d: pruned min time %g beats unpruned %g",
					trial, c.MinTime(), ft)
			}
		}
	}
}
