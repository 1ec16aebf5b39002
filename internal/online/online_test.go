package online

import (
	"math/rand"
	"testing"

	"fairtask/internal/geo"
	"fairtask/internal/model"
	"fairtask/internal/travel"
)

func matcherInstance(workers int) *model.Instance {
	in := &model.Instance{
		Center: geo.Pt(0, 0),
		Travel: travel.MustModel(geo.Euclidean{}, 1),
	}
	for w := 0; w < workers; w++ {
		in.Workers = append(in.Workers, model.Worker{
			ID: w, Loc: geo.Pt(float64(w), 0),
		})
	}
	return in
}

func TestNewMatcherNoWorkers(t *testing.T) {
	in := matcherInstance(0)
	if _, err := NewMatcher(in, Greedy); err != ErrNoWorkers {
		t.Errorf("err = %v, want ErrNoWorkers", err)
	}
}

func TestPolicyString(t *testing.T) {
	if Greedy.String() != "greedy" || FairFirst.String() != "fair-first" {
		t.Error("policy names wrong")
	}
	if Policy(99).String() != "unknown" {
		t.Error("unknown policy name")
	}
}

func TestOfferGreedyPicksFastest(t *testing.T) {
	// Worker 0 at the center, worker 1 at distance 5: greedy must use 0.
	in := matcherInstance(2)
	in.Workers[1].Loc = geo.Pt(5, 0)
	m, err := NewMatcher(in, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := m.Offer(0, Task{ID: 1, Loc: geo.Pt(1, 0), Expiry: 100, Reward: 1})
	if !ok || w != 0 {
		t.Errorf("assigned worker %d ok=%v, want worker 0", w, ok)
	}
}

func TestOfferRespectsDeadline(t *testing.T) {
	in := matcherInstance(1) // worker 0 at the center
	m, err := NewMatcher(in, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	// Task 10 km out, deadline 5 h at 1 km/h: infeasible.
	if _, ok := m.Offer(0, Task{ID: 1, Loc: geo.Pt(10, 0), Expiry: 5, Reward: 1}); ok {
		t.Error("infeasible task accepted")
	}
	rep := m.Report()
	if rep.Rejected != 1 || rep.Assigned != 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestOfferBusyWorkerUnavailable(t *testing.T) {
	in := matcherInstance(1)
	m, err := NewMatcher(in, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	// First job keeps the only worker busy until t = 1.
	if _, ok := m.Offer(0, Task{ID: 1, Loc: geo.Pt(1, 0), Expiry: 10, Reward: 1}); !ok {
		t.Fatal("first task rejected")
	}
	// Second task with a deadline before the worker can possibly finish:
	// busy till 1, then back to center (1) plus 1 out -> done at 3 > 2.
	if _, ok := m.Offer(0.5, Task{ID: 2, Loc: geo.Pt(1, 0), Expiry: 2, Reward: 1}); ok {
		t.Error("task assigned to busy worker that cannot make the deadline")
	}
	// With a loose deadline the busy worker is queued behind the first job.
	if _, ok := m.Offer(0.5, Task{ID: 3, Loc: geo.Pt(1, 0), Expiry: 10, Reward: 1}); !ok {
		t.Error("loose-deadline task rejected")
	}
}

func TestFairFirstPrefersIdleWorkers(t *testing.T) {
	in := matcherInstance(2) // workers at x=0 and x=1
	m, err := NewMatcher(in, FairFirst)
	if err != nil {
		t.Fatal(err)
	}
	w1, ok := m.Offer(0, Task{ID: 1, Loc: geo.Pt(0.5, 0), Expiry: 100, Reward: 1})
	if !ok {
		t.Fatal("rejected")
	}
	w2, ok := m.Offer(0, Task{ID: 2, Loc: geo.Pt(-0.5, 0), Expiry: 100, Reward: 1})
	if !ok {
		t.Fatal("rejected")
	}
	if w1 == w2 {
		t.Errorf("fair-first gave both tasks to worker %d", w1)
	}
}

// On a random task stream, the fair-first policy must produce a lower (or
// equal) earnings-rate difference than greedy while assigning a comparable
// number of tasks.
func TestFairFirstNarrowsSpread(t *testing.T) {
	mkStream := func() []Task {
		rng := rand.New(rand.NewSource(42))
		tasks := make([]Task, 120)
		for i := range tasks {
			tasks[i] = Task{
				ID:     i,
				Loc:    geo.Pt(rng.Float64()*4-2, rng.Float64()*4-2),
				Expiry: float64(i)/10 + 4,
				Reward: 1,
			}
		}
		return tasks
	}
	run := func(p Policy) Report {
		in := matcherInstance(6)
		m, err := NewMatcher(in, p)
		if err != nil {
			t.Fatal(err)
		}
		for i, task := range mkStream() {
			m.Offer(float64(i)/10, task)
		}
		return m.Report()
	}
	g := run(Greedy)
	f := run(FairFirst)
	if f.RateDifference > g.RateDifference+1e-9 {
		t.Errorf("fair-first rate spread %.3f exceeds greedy %.3f",
			f.RateDifference, g.RateDifference)
	}
	if f.Assigned < g.Assigned/2 {
		t.Errorf("fair-first throughput collapsed: %d vs %d", f.Assigned, g.Assigned)
	}
}

func TestReportCopiesState(t *testing.T) {
	in := matcherInstance(1)
	m, err := NewMatcher(in, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	m.Offer(0, Task{ID: 1, Loc: geo.Pt(1, 0), Expiry: 10, Reward: 2})
	rep := m.Report()
	rep.Earnings[0] = -1
	if m.Report().Earnings[0] != 2 {
		t.Error("Report shares internal slices")
	}
}
