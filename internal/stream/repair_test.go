package stream

import (
	"context"
	"testing"

	"fairtask/internal/fault"
	"fairtask/internal/geo"
	"fairtask/internal/model"
	"fairtask/internal/obs"
	"fairtask/internal/travel"
)

// TestIncrementalRepairDifferential is the incremental-regen acceptance
// sweep: across seeds, scales and both dynamics, an expiry-moving stream must
// route through the incremental candidate repair (worker churn is off, so no
// full regeneration can occur) and stay bit-identical to cold reference
// solves of the replayed instance at every checkpoint. The tie-heavy
// lattice pins the engine path on exact payoff ties: its repaired tables
// append regenerated candidates after retained ones that the candidates'
// own order puts after them.
func TestIncrementalRepairDifferential(t *testing.T) {
	gmStream := StreamConfig{Rate: 30, Duration: 1, Lifetime: 0.4, RepriceRate: 8}
	instances := []struct {
		name string
		in   func(t testing.TB, seed int64) *model.Instance
		cfg  StreamConfig
	}{
		{"gm-16", func(t testing.TB, seed int64) *model.Instance { return gmInstance(t, seed, 40, 6, 16) }, gmStream},
		{"gm-28", func(t testing.TB, seed int64) *model.Instance { return gmInstance(t, seed, 80, 12, 28) }, gmStream},
		{"lattice", func(testing.TB, int64) *model.Instance { return latticeInstance() },
			StreamConfig{Rate: 8, Duration: 3, Lifetime: 1.5, RepriceRate: 3}},
	}
	for _, alg := range []Algorithm{FGT, IEGT} {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				for si, inst := range instances {
					in := inst.in(t, seed)
					opt := Options{Algorithm: alg, VDPS: testVDPS}
					opt.Game.Seed, opt.Evo.Seed = seed, seed
					eng, err := New(context.Background(), in, opt)
					if err != nil {
						t.Fatal(err)
					}
					cfg := inst.cfg
					cfg.Seed = seed*77 + int64(si)
					ds, err := GenerateStream(in, cfg)
					if err != nil {
						t.Fatal(err)
					}
					regens := 0
					for i, d := range ds {
						res, err := eng.Apply(context.Background(), d)
						if err != nil {
							t.Fatalf("%s seed %d delta %d (%s): %v", inst.name, seed, i, d.Kind, err)
						}
						if res.Resolve == ResolveRegen {
							regens++
						}
						if res.Resolve == ResolveCold {
							t.Fatalf("%s seed %d delta %d: unexpected cold fallback", inst.name, seed, i)
						}
						if (i+1)%7 != 0 && i != len(ds)-1 {
							continue
						}
						replayed := in.Clone()
						if err := Replay(replayed, ds[:i+1]...); err != nil {
							t.Fatal(err)
						}
						assertBitExact(t, eng.Snapshot(), coldReference(t, replayed, alg, seed))
					}
					if regens == 0 {
						t.Fatalf("%s seed %d: expiry-heavy stream produced no regen resolves", inst.name, seed)
					}
				}
			}
		})
	}
}

// latticeInstance is a tie-heavy instance (a copy of the vdps test helper):
// the 24 integer points of [-2,2]² around a center at the origin, under the
// Manhattan metric at speed 1, with rewards 1-3, so many strategies of one
// worker have exactly equal payoffs.
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

// expiryMovingDelta finds a task whose expiry pins its point's earliest
// expiry uniquely, so expiring it is guaranteed to move the signature and
// force the incremental-regen path.
func expiryMovingDelta(t *testing.T, eng *Engine, seq uint64) Delta {
	t.Helper()
	snap := eng.Snapshot()
	for p := range snap.Instance.Points {
		tasks := snap.Instance.Points[p].Tasks
		if len(tasks) < 2 {
			continue
		}
		minI := 0
		for i := range tasks {
			if tasks[i].Expiry < tasks[minI].Expiry {
				minI = i
			}
		}
		unique := true
		for i := range tasks {
			if i != minI && tasks[i].Expiry == tasks[minI].Expiry {
				unique = false
			}
		}
		if unique {
			return Delta{Seq: seq, Kind: TaskExpired, TaskID: tasks[minI].ID}
		}
	}
	t.Skip("no point with a unique minimum-expiry task")
	return Delta{}
}

// TestRepairFailpointColdFallback arms the stream.repair failpoint: the
// incremental candidate regeneration is refused mid-surgery, the engine
// degrades to an audited cold solve, the batch still commits bit-exactly,
// and the next expiry-moving delta runs the (rebuilt) incremental path again.
func TestRepairFailpointColdFallback(t *testing.T) {
	defer fault.DisarmAll()
	in := gmInstance(t, 14, 60, 10, 24)
	reg := obs.NewRegistry()
	opt := Options{VDPS: testVDPS, Metrics: obs.NewStreamMetrics(reg)}
	opt.Game.Seed = 14
	eng, err := New(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}

	fault.Lookup("stream.repair").Arm(fault.Behavior{Kind: fault.KindError, Count: 1})
	d := expiryMovingDelta(t, eng, 1)
	res, err := eng.Apply(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolve != ResolveCold {
		t.Fatalf("resolve = %q, want %q", res.Resolve, ResolveCold)
	}
	if res.Audit == nil || len(res.Audit.Violations) != 0 {
		t.Fatalf("cold fallback must pass its audit, got %+v", res.Audit)
	}
	replayed := in.Clone()
	if err := Replay(replayed, d); err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, eng.Snapshot(), coldReference(t, replayed, FGT, 14))
	if got := opt.Metrics.ResolveCold.Value(); got != 1 {
		t.Fatalf("fta_stream_resolves_total{kind=cold} = %d, want 1", got)
	}

	// The failpoint is spent and the warm structures were rebuilt: the next
	// expiry move takes the incremental path and stays pinned.
	d2 := expiryMovingDelta(t, eng, 2)
	res, err = eng.Apply(context.Background(), d2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolve != ResolveRegen {
		t.Fatalf("post-fallback resolve = %q, want %q", res.Resolve, ResolveRegen)
	}
	if err := Replay(replayed, d2); err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, eng.Snapshot(), coldReference(t, replayed, FGT, 14))
}

// TestWorkersTouchedRepairCounts is the regression test for the repair blast
// radius: every resolve path counts rebuilt plus departed workers, so a
// shrinking roster is visible in WorkersTouched whether the departure lands
// on the warm path or forces a full regeneration. A worker that leaves and
// rejoins in one batch counts per ID: not at all when nothing its strategy
// list reads changed, once when it rejoined somewhere else — and then its
// list must be rebuilt, or the replay below diverges from the cold solve.
func TestWorkersTouchedRepairCounts(t *testing.T) {
	in := gmInstance(t, 15, 60, 10, 24)
	// Give one worker a strictly larger set-size appetite: taking it offline
	// moves EffectiveMaxSize and forces the full-regen path.
	in.Workers[0].MaxDP = 4
	opt := Options{VDPS: testVDPS}
	opt.Game.Seed = 15
	eng, err := New(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Warm-path departure: the cap is pinned by worker 0, so dropping a
	// MaxDP-3 worker repairs nothing — only the departure itself counts.
	res, err := eng.Apply(context.Background(), Delta{Seq: 1, Kind: WorkerOffline, WorkerID: in.Workers[1].ID})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolve != ResolveWarm {
		t.Fatalf("resolve = %q, want %q", res.Resolve, ResolveWarm)
	}
	if res.WorkersTouched != 1 {
		t.Fatalf("warm departure WorkersTouched = %d, want 1", res.WorkersTouched)
	}

	// Regen-path departure: dropping the unique MaxDP-4 worker shrinks the
	// candidate size cap, so the whole roster rebuilds and the departed
	// worker still counts on top.
	res, err = eng.Apply(context.Background(), Delta{Seq: 2, Kind: WorkerOffline, WorkerID: in.Workers[0].ID})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolve != ResolveRegen {
		t.Fatalf("resolve = %q, want %q", res.Resolve, ResolveRegen)
	}
	if want := len(in.Workers) - 2 + 1; res.WorkersTouched != want {
		t.Fatalf("regen departure WorkersTouched = %d, want %d (roster %d + departed 1)",
			res.WorkersTouched, want, len(in.Workers)-2)
	}

	// Rejoin with identical fields: the worker keeps its ID and everything
	// its strategy list reads, so the list carries over untouched.
	same := in.Workers[2]
	rejoin := []Delta{
		{Seq: 3, Kind: WorkerOffline, WorkerID: same.ID},
		{Seq: 4, Kind: WorkerOnline, WorkerID: same.ID, Loc: same.Loc, MaxDP: same.MaxDP,
			Priority: same.Priority, Contribution: same.Contribution, Speed: same.Speed},
	}
	res, err = eng.ApplyAll(context.Background(), rejoin)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolve != ResolveWarm {
		t.Fatalf("resolve = %q, want %q", res.Resolve, ResolveWarm)
	}
	if res.WorkersTouched != 0 {
		t.Fatalf("identical rejoin WorkersTouched = %d, want 0", res.WorkersTouched)
	}

	// Rejoin under the same ID next to the center: the approach time moved,
	// so the worker needs a fresh list, and it counts once. MaxDP is kept so
	// the candidate size cap does not move.
	moved := in.Workers[3]
	moved.Loc = geo.Point{X: in.Center.X + 0.01, Y: in.Center.Y}
	if moved.Loc == in.Workers[3].Loc {
		t.Fatal("moved worker did not move")
	}
	relocate := []Delta{
		{Seq: 5, Kind: WorkerOffline, WorkerID: moved.ID},
		{Seq: 6, Kind: WorkerOnline, WorkerID: moved.ID, Loc: moved.Loc, MaxDP: moved.MaxDP,
			Priority: moved.Priority, Contribution: moved.Contribution, Speed: moved.Speed},
	}
	res, err = eng.ApplyAll(context.Background(), relocate)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolve != ResolveWarm {
		t.Fatalf("resolve = %q, want %q", res.Resolve, ResolveWarm)
	}
	if res.WorkersTouched != 1 {
		t.Fatalf("moved rejoin WorkersTouched = %d, want 1", res.WorkersTouched)
	}

	replayed := in.Clone()
	if err := Replay(replayed, append(append([]Delta{
		{Seq: 1, Kind: WorkerOffline, WorkerID: in.Workers[1].ID},
		{Seq: 2, Kind: WorkerOffline, WorkerID: in.Workers[0].ID},
	}, rejoin...), relocate...)...); err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, eng.Snapshot(), coldReference(t, replayed, FGT, 15))
}
