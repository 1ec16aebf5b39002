package stream

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"fairtask/internal/audit"
	"fairtask/internal/evo"
	"fairtask/internal/fault"
	"fairtask/internal/game"
	"fairtask/internal/obs"
	"fairtask/internal/platform"
	"fairtask/internal/vdps"
)

// liveTask returns a task on a delivery point backing the current
// equilibrium, so re-pricing it is game-visible (a point unreachable before
// its expiry belongs to no candidate, and re-pricing it is a correct no-op).
func liveTask(t *testing.T, eng *Engine) int {
	t.Helper()
	snap := eng.Snapshot()
	for _, r := range snap.Assignment.Routes {
		for _, p := range r {
			if len(snap.Instance.Points[p].Tasks) > 0 {
				return snap.Instance.Points[p].Tasks[0].ID
			}
		}
	}
	t.Fatal("no assigned point with tasks")
	return 0
}

// TestResolveFailpointColdFallback arms the stream.resolve failpoint for
// one hit: the warm resolve is refused mid-delta, the engine degrades to an
// audited cold solve through the platform ladder, the batch still commits
// bit-exactly, and the next delta is warm again.
func TestResolveFailpointColdFallback(t *testing.T) {
	defer fault.DisarmAll()
	in := gmInstance(t, 11, 60, 10, 24)
	reg := obs.NewRegistry()
	opt := Options{VDPS: testVDPS, Metrics: obs.NewStreamMetrics(reg)}
	opt.Game.Seed = 11
	eng, err := New(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	taskID := liveTask(t, eng)

	fault.Lookup("stream.resolve").Arm(fault.Behavior{Kind: fault.KindError, Count: 1})
	d := Delta{Seq: 1, Kind: RewardChanged, TaskID: taskID, Reward: 3}
	res, err := eng.Apply(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolve != ResolveCold {
		t.Fatalf("resolve = %q, want %q", res.Resolve, ResolveCold)
	}
	if res.Audit == nil {
		t.Fatal("cold fallback must carry an audit report")
	}
	if len(res.Audit.Violations) != 0 {
		t.Fatalf("audit violations on fallback: %+v", res.Audit.Violations)
	}
	if res.Degraded != "" {
		t.Fatalf("exact-only fallback reported rung %q", res.Degraded)
	}
	replayed := in.Clone()
	if err := Replay(replayed, d); err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, eng.Snapshot(), coldReference(t, replayed, FGT, 11))
	if got := opt.Metrics.ResolveCold.Value(); got != 1 {
		t.Fatalf("fta_stream_resolves_total{kind=cold} = %d, want 1", got)
	}

	// The failpoint is spent: the next delta takes the warm path and stays
	// pinned.
	d2 := Delta{Seq: 2, Kind: RewardChanged, TaskID: taskID, Reward: 0.5}
	res, err = eng.Apply(context.Background(), d2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolve != ResolveWarm {
		t.Fatalf("post-fallback resolve = %q, want %q", res.Resolve, ResolveWarm)
	}
	if err := Replay(replayed, d2); err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, eng.Snapshot(), coldReference(t, replayed, FGT, 11))
}

// TestColdFallbackGeneratesOnce pins that an exact-rung cold fallback runs
// the candidate DP once: the engine commits the generator and the lists the
// rung built and played, instead of building them again. They must equal a
// fresh build over the batch's instance, and the next delta stays warm and
// bit-exact.
func TestColdFallbackGeneratesOnce(t *testing.T) {
	defer fault.DisarmAll()
	in := gmInstance(t, 11, 60, 10, 24)
	opt := Options{VDPS: testVDPS}
	opt.Game.Seed = 11
	eng, err := New(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	taskID := liveTask(t, eng)

	fault.Lookup("stream.resolve").Arm(fault.Behavior{Kind: fault.KindError, Count: 1})
	d := Delta{Seq: 1, Kind: RewardChanged, TaskID: taskID, Reward: 3}
	tr := obs.NewTracer()
	root := tr.Root("delta")
	res, err := eng.Apply(obs.ContextWithSpan(context.Background(), root), d)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolve != ResolveCold || res.Degraded != "" {
		t.Fatalf("resolve %q on rung %q, want an exact cold fallback", res.Resolve, res.Degraded)
	}
	generated := 0
	for _, sp := range tr.Collect("delta").Spans {
		if sp.Name == "vdps.generate" {
			generated++
		}
	}
	if generated != 1 {
		t.Fatalf("the cold fallback ran the candidate DP %d times, want 1", generated)
	}
	replayed := in.Clone()
	if err := Replay(replayed, d); err != nil {
		t.Fatal(err)
	}
	gen, err := vdps.Generate(replayed, testVDPS)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eng.gen.Candidates(), gen.Candidates()) || !reflect.DeepEqual(eng.lists, game.NewState(gen).Strategies) {
		t.Fatal("the committed generator and lists differ from a fresh build")
	}

	d2 := Delta{Seq: 2, Kind: RewardChanged, TaskID: taskID, Reward: 0.5}
	if res, err = eng.Apply(context.Background(), d2); err != nil {
		t.Fatal(err)
	}
	if res.Resolve != ResolveWarm {
		t.Fatalf("post-fallback resolve = %q, want %q", res.Resolve, ResolveWarm)
	}
	if err := Replay(replayed, d2); err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, eng.Snapshot(), coldReference(t, replayed, FGT, 11))
}

// TestChaosColdFallbackCertifiesWithEngineOptions pins that a cold
// fallback's audit certifies with the options the engine's dynamics ran:
// FGT at a utility threshold of 0.5 or 0.1, IEGT at a payoff tolerance of 5
// or 1. On each engine the armed stream.resolve failpoint refuses the first
// re-pricing of a live task, and the exact-rung cold solve that serves it
// must commit with a clean audit that ran the certificate. A certificate at
// the default threshold and tolerance refutes some of these equilibria.
func TestChaosColdFallbackCertifiesWithEngineOptions(t *testing.T) {
	defer fault.DisarmAll()
	engines := map[string]Options{
		"FGT eps 0.5": {Game: game.Options{EpsilonUtility: 0.5}},
		"FGT eps 0.1": {Game: game.Options{EpsilonUtility: 0.1}},
		"IEGT tol 5":  {Algorithm: IEGT, Evo: evo.Options{Tolerance: 5}},
		"IEGT tol 1":  {Algorithm: IEGT, Evo: evo.Options{Tolerance: 1}},
	}
	ctx := context.Background()
	for name, opt := range engines {
		for seed := int64(1); seed <= 12; seed++ {
			opt := opt
			opt.VDPS = testVDPS
			opt.Game.Seed, opt.Evo.Seed = seed, seed
			eng, err := New(ctx, gmInstance(t, seed, 60, 10, 24), opt)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			fault.Lookup("stream.resolve").Arm(fault.Behavior{Kind: fault.KindError, Count: 1})
			res, err := eng.Apply(ctx, Delta{Seq: 1, Kind: RewardChanged, TaskID: liveTask(t, eng), Reward: 3})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if res.Resolve != ResolveCold || res.Degraded != "" {
				t.Fatalf("%s seed %d: resolve %q on rung %q, want an exact cold fallback", name, seed, res.Resolve, res.Degraded)
			}
			if !res.Audit.OK() || !slices.Contains(res.Audit.Checks, audit.CheckEquilibrium) {
				t.Errorf("%s seed %d: audit checks %v, violations %v", name, seed, res.Audit.Checks, res.Audit.Violations)
			}
		}
	}
}

// TestApplyFailpointRejects arms stream.apply: ingest is refused before any
// mutation, no sequence number is consumed, and the same delta applies
// cleanly once the failpoint is spent.
func TestApplyFailpointRejects(t *testing.T) {
	defer fault.DisarmAll()
	in := gmInstance(t, 12, 30, 6, 12)
	reg := obs.NewRegistry()
	opt := Options{VDPS: testVDPS, Metrics: obs.NewStreamMetrics(reg)}
	opt.Game.Seed = 12
	eng, err := New(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Snapshot()
	d := Delta{Seq: 1, Kind: RewardChanged, TaskID: in.Points[0].Tasks[0].ID, Reward: 2}

	fault.Lookup("stream.apply").Arm(fault.Behavior{Kind: fault.KindError, Count: 1})
	if _, err := eng.Apply(context.Background(), d); err == nil {
		t.Fatal("armed stream.apply did not reject")
	} else {
		var fe *fault.Error
		if !errors.As(err, &fe) {
			t.Fatalf("rejection not a fault error: %v", err)
		}
	}
	after := eng.Snapshot()
	if after.Seq != before.Seq || !reflect.DeepEqual(after.Summary.Payoffs, before.Summary.Payoffs) {
		t.Fatal("rejected apply mutated engine state")
	}
	if got := opt.Metrics.Rejected.Value(); got != 1 {
		t.Fatalf("fta_stream_rejected_total = %d, want 1", got)
	}
	if _, err := eng.Apply(context.Background(), d); err != nil {
		t.Fatalf("retry after spent failpoint: %v", err)
	}
}

// TestLadderDegradedFallback disables the exact rung, so a mid-delta
// failure degrades through the PR 5 ladder to a sampled solve — audited,
// labeled, and self-healing: the next warm delta re-establishes the exact
// bit-pinned equilibrium.
func TestLadderDegradedFallback(t *testing.T) {
	defer fault.DisarmAll()
	in := gmInstance(t, 13, 60, 10, 24)
	opt := Options{
		VDPS:    testVDPS,
		Degrade: &platform.Degrade{ExactBudget: -1},
	}
	opt.Game.Seed = 13
	eng, err := New(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	taskID := liveTask(t, eng)

	fault.Lookup("stream.resolve").Arm(fault.Behavior{Kind: fault.KindError, Count: 1})
	d := Delta{Seq: 1, Kind: RewardChanged, TaskID: taskID, Reward: 2.5}
	res, err := eng.Apply(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolve != ResolveCold {
		t.Fatalf("resolve = %q, want %q", res.Resolve, ResolveCold)
	}
	if res.Degraded == "" {
		t.Fatal("exact rung disabled, expected a degraded rung label")
	}
	if res.Audit == nil || len(res.Audit.Violations) != 0 {
		t.Fatalf("degraded fallback must pass its audit, got %+v", res.Audit)
	}
	// Self-healing: the next warm resolve lands back on the exact pin.
	d2 := Delta{Seq: 2, Kind: RewardChanged, TaskID: taskID, Reward: 1.5}
	res, err = eng.Apply(context.Background(), d2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolve != ResolveWarm {
		t.Fatalf("post-fallback resolve = %q, want %q", res.Resolve, ResolveWarm)
	}
	replayed := in.Clone()
	if err := Replay(replayed, d, d2); err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, eng.Snapshot(), coldReference(t, replayed, FGT, 13))
}

// TestFailedFallbackAfterRepairMarksDirty pins the dirty protocol that the
// in-place repair leans on. An expiry-moving delta repairs the candidate
// table and splices the committed strategy lists in place; arming
// stream.resolve and platform.solve once each then fails both the warm
// resolve and the cold fallback, so the Apply fails and consumes no
// sequence number. The warm structures now describe the failed batch, so a
// different batch — a re-pricing of another task, which would otherwise
// take the warm path over them — must regenerate and match the cold solve
// of the instance without the failed delta. Re-applying the failed delta
// would not do: its repair heals the structures on a retry.
func TestFailedFallbackAfterRepairMarksDirty(t *testing.T) {
	defer fault.DisarmAll()
	for seed := int64(14); seed <= 17; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			in := gmInstance(t, seed, 60, 10, 24)
			opt := Options{VDPS: testVDPS}
			opt.Game.Seed = seed
			eng, err := New(context.Background(), in, opt)
			if err != nil {
				t.Fatal(err)
			}
			d := expiryMovingDelta(t, eng, 1)

			fault.Lookup("stream.resolve").Arm(fault.Behavior{Kind: fault.KindError, Count: 1})
			fault.Lookup("platform.solve").Arm(fault.Behavior{Kind: fault.KindError, Count: 1})
			if _, err := eng.Apply(context.Background(), d); err == nil {
				t.Fatal("a failed resolve and a failed cold fallback did not fail the Apply")
			}
			fault.DisarmAll()
			if seq := eng.Snapshot().Seq; seq != 0 {
				t.Fatalf("failed Apply moved the sequence to %d", seq)
			}

			other := liveTask(t, eng)
			if other == d.TaskID {
				other = otherTask(t, eng, d.TaskID)
			}
			d2 := Delta{Seq: 1, Kind: RewardChanged, TaskID: other, Reward: 2.5}
			res, err := eng.Apply(context.Background(), d2)
			if err != nil {
				t.Fatal(err)
			}
			if res.Resolve != ResolveRegen {
				t.Fatalf("resolve after a failed repaired batch = %q, want %q", res.Resolve, ResolveRegen)
			}
			replayed := in.Clone()
			if err := Replay(replayed, d2); err != nil {
				t.Fatal(err)
			}
			assertBitExact(t, eng.Snapshot(), coldReference(t, replayed, FGT, seed))
		})
	}
}

// otherTask returns the ID of a task other than id.
func otherTask(t *testing.T, eng *Engine, id int) int {
	t.Helper()
	snap := eng.Snapshot()
	for p := range snap.Instance.Points {
		for _, tk := range snap.Instance.Points[p].Tasks {
			if tk.ID != id {
				return tk.ID
			}
		}
	}
	t.Fatal("no other task")
	return 0
}
