package stream

import (
	"context"
	"maps"
	"sort"
	"testing"
	"time"

	"fairtask/internal/game"
	"fairtask/internal/obs"
	"fairtask/internal/vdps"
)

// benchSetup builds the DP-heavy regime where incremental repair pays off:
// many delivery points (candidate generation dominates a cold solve), few
// workers (dynamics stay cheap), and a reprice-only stream (every delta
// takes the warm path).
func benchSetup(b *testing.B) (*Engine, []Delta) {
	b.Helper()
	in := gmInstance(b, 7, 360, 8, 120)
	ds, err := GenerateStream(in, StreamConfig{Seed: 7, Duration: 1, RepriceRate: 25})
	if err != nil {
		b.Fatal(err)
	}
	if len(ds) == 0 {
		b.Fatal("empty benchmark stream")
	}
	opt := Options{VDPS: benchVDPS()}
	opt.Game.Seed = 7
	eng, err := New(context.Background(), in, opt)
	if err != nil {
		b.Fatal(err)
	}
	return eng, ds
}

func benchVDPS() vdps.Options { return vdps.Options{Epsilon: 1.5} }

// BenchmarkStreamApply measures per-delta warm applies and reports the
// latency distribution, repair locality and where a delta's time goes:
//
//	p50-ns/delta, p99-ns/delta    delta-apply latency percentiles
//	workers-touched/delta         strategy rebuild footprint per delta
//	repair-ns/delta ...           median per-phase self time (see benchPhases)
//
// Each iteration applies the whole stream to a fresh engine, built with the
// timer stopped: re-applying it to one engine would set prices that are
// already set, and those deltas take the noop path. The timed loop runs
// untraced; the phase times come from one more, traced pass after it.
func BenchmarkStreamApply(b *testing.B) {
	var lat []float64
	var touched, applied int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, ds := benchSetup(b)
		b.StartTimer()
		for _, d := range ds {
			start := time.Now()
			res, err := eng.Apply(context.Background(), d)
			if err != nil {
				b.Fatal(err)
			}
			lat = append(lat, float64(time.Since(start).Nanoseconds()))
			touched += res.WorkersTouched
			applied++
		}
	}
	b.StopTimer()
	sort.Float64s(lat)
	b.ReportMetric(lat[len(lat)*50/100], "p50-ns/delta")
	b.ReportMetric(lat[min(len(lat)-1, len(lat)*99/100)], "p99-ns/delta")
	b.ReportMetric(float64(touched)/float64(applied), "workers-touched/delta")
	benchPhases(b)
}

// benchPhases applies the benchmark stream once more, to a fresh engine,
// with one tracer root span per delta, reduces each delta's trace with
// obs.Breakdown and reports the median over deltas of each phase's self
// time (zero where a delta skipped the phase):
//
//	repair-ns/delta     stream.repair: candidate and strategy-list repair
//	resolve-ns/delta    stream.resolve: the dynamics replay, whose interval
//	                    holds the state.build and round spans below
//	init-ns/delta       state.build: the random singleton init
//	rounds-ns/delta     the round spans, summed: best-response rounds
//
// The caller's timer must be stopped.
func benchPhases(b *testing.B) {
	phases := []struct{ span, unit string }{
		{"stream.repair", "repair-ns/delta"},
		{"stream.resolve", "resolve-ns/delta"},
		{"state.build", "init-ns/delta"},
		{"round", "rounds-ns/delta"},
	}
	eng, ds := benchSetup(b)
	self := make([][]float64, len(phases))
	for _, d := range ds {
		tr := obs.NewTracer()
		root := tr.Root("delta")
		if _, err := eng.Apply(obs.ContextWithSpan(context.Background(), root), d); err != nil {
			b.Fatal(err)
		}
		root.End()
		byName := map[string]time.Duration{}
		for _, ph := range obs.Breakdown(tr.Collect("delta")) {
			byName[ph.Name] = ph.Self
		}
		for i, ph := range phases {
			self[i] = append(self[i], float64(byName[ph.span].Nanoseconds()))
		}
	}
	for i, ph := range phases {
		sort.Float64s(self[i])
		b.ReportMetric(self[i][len(self[i])/2], ph.unit)
	}
}

// servedSetup builds servebench's stream-reprice-expiry workload in
// process: the GM instance of seed 7 (360 tasks, 8 workers, 120 points) at
// ε 1.5 with FGT at seed 7, and its delta sequence, GenerateStream at seed 7
// over 1.8 h with 40 arrivals/h of 0.4 h lifetime and 30 re-pricings/h.
func servedSetup(b *testing.B) (*Engine, []Delta) {
	b.Helper()
	in := gmInstance(b, 7, 360, 8, 120)
	ds, err := GenerateStream(in, StreamConfig{Seed: 7, Rate: 40, Duration: 1.8, Lifetime: 0.4, RepriceRate: 30})
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{VDPS: benchVDPS()}
	opt.Game.Seed = 7
	eng, err := New(context.Background(), in, opt)
	if err != nil {
		b.Fatal(err)
	}
	return eng, ds
}

// BenchmarkStreamServed replays the served stream mix (see servedSetup),
// one delta per Apply as /stream/events serves them, on a fresh engine per
// iteration, built with the timer stopped. It reports the nearest-rank
// percentiles of the per-delta latency over all iterations:
//
//	p50-ns/delta, p90-ns/delta   every delta
//	warm-p50-ns, regen-p50-ns    the warm and the regen deltas
//
// Every replay must resolve as the served one does: 131 warm, 53 regen, 3
// noop and no cold delta.
func BenchmarkStreamServed(b *testing.B) {
	var all, warm, regen []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, ds := servedSetup(b)
		b.StartTimer()
		counts := map[string]int{}
		for _, d := range ds {
			start := time.Now()
			res, err := eng.Apply(context.Background(), d)
			ns := float64(time.Since(start).Nanoseconds())
			if err != nil {
				b.Fatal(err)
			}
			all = append(all, ns)
			switch res.Resolve {
			case ResolveWarm:
				warm = append(warm, ns)
			case ResolveRegen:
				regen = append(regen, ns)
			}
			counts[res.Resolve]++
		}
		if want := map[string]int{ResolveWarm: 131, ResolveRegen: 53, ResolveNoop: 3}; !maps.Equal(counts, want) {
			b.Fatalf("resolves %v, want %v", counts, want)
		}
	}
	b.StopTimer()
	b.ReportMetric(nearestRank(all, 50), "p50-ns/delta")
	b.ReportMetric(nearestRank(all, 90), "p90-ns/delta")
	b.ReportMetric(nearestRank(warm, 50), "warm-p50-ns")
	b.ReportMetric(nearestRank(regen, 50), "regen-p50-ns")
}

// nearestRank sorts xs and returns its nearest-rank q-th percentile.
func nearestRank(xs []float64, q int) float64 {
	sort.Float64s(xs)
	return xs[max(0, (len(xs)*q+99)/100-1)]
}

// BenchmarkStreamStrategyRepair isolates the warm path's strategy-space
// maintenance on the reprice-heavy regime: a repair that recomputes
// re-priced entries in place (vdps.RepairStrategyPayoffs) versus
// re-enumerating the list from the candidate table (vdps.WorkerStrategies),
// which is what the warm path did before in-place repair existed. The
// enumeration, which also checks each repaired list's length, runs with the
// timer stopped, so ns/op, B/op and allocs/op measure the repair alone.
// Reports speedup-x = mean enumeration / mean repair.
func BenchmarkStreamStrategyRepair(b *testing.B) {
	eng, _ := benchSetup(b)
	gen := eng.gen
	in := eng.inst
	var sc vdps.StrategyScratch
	cached := make([][]vdps.StrategyRef, len(in.Workers))
	for w := range in.Workers {
		cached[w] = append([]vdps.StrategyRef(nil), gen.WorkerStrategies(w, &sc)...)
	}
	// One re-priced mask serves every round: marked from RepairRewards'
	// return, cleared after the round.
	repriced := make([]bool, len(gen.Candidates()))
	var repairNS, enumNS float64
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-price one point per round, exactly like a RewardChanged delta.
		p := i % len(in.Points)
		for t := range in.Points[p].Tasks {
			in.Points[p].Tasks[t].Reward += 0.25
		}
		changed := gen.RepairRewards([]int{p})
		if len(changed) == 0 {
			continue
		}
		for _, ci := range changed {
			repriced[ci] = true
		}
		for w := range in.Workers {
			start := time.Now()
			gen.RepairStrategyPayoffs(w, cached[w], changed)
			repairNS += float64(time.Since(start).Nanoseconds())
			n++
		}
		b.StopTimer()
		for w := range in.Workers {
			start := time.Now()
			want := gen.WorkerStrategies(w, &sc)
			enumNS += float64(time.Since(start).Nanoseconds())
			if len(want) != len(cached[w]) {
				b.Fatal("repair and enumeration disagree")
			}
		}
		b.StartTimer()
		for _, ci := range changed {
			repriced[ci] = false
		}
	}
	b.StopTimer()
	if n == 0 {
		b.Skip("no reprice changed a candidate")
	}
	b.ReportMetric(repairNS/float64(n), "repair-ns/worker")
	b.ReportMetric(enumNS/float64(n), "enum-ns/worker")
	b.ReportMetric(enumNS/repairNS, "speedup-x")
}

// benchExpirySetup builds the expiry-heavy regime: short-lived arrivals
// whose deadlines undercut the standing earliest expiries and then expire
// mid-stream, so most deltas invalidate candidates and route through the
// regen path. Worker churn stays off: every regen is the incremental repair.
func benchExpirySetup(b *testing.B) (*Engine, []Delta) {
	b.Helper()
	in := gmInstance(b, 7, 360, 8, 120)
	ds, err := GenerateStream(in, StreamConfig{Seed: 7, Rate: 40, Duration: 1, Lifetime: 0.4})
	if err != nil {
		b.Fatal(err)
	}
	if len(ds) == 0 {
		b.Fatal("empty benchmark stream")
	}
	opt := Options{VDPS: benchVDPS()}
	opt.Game.Seed = 7
	eng, err := New(context.Background(), in, opt)
	if err != nil {
		b.Fatal(err)
	}
	return eng, ds
}

// BenchmarkStreamIncrementalRegen pins the incremental candidate repair
// against a full candidate-DP re-run on the same expiry-moving deltas. The
// incremental engine first applies the whole stream, with the timer running
// only around its applies, so ns/op, B/op and allocs/op measure it alone,
// and records which deltas it regenerated. A twin engine, built after that
// pass, then applies the same stream untimed, forced to regenerate from
// scratch (its warm structures marked dirty) at exactly those deltas, timed
// by hand. The twin runs second because its full DP outgrows the kept DP
// scratch, which is then dropped: interleaved, every incremental regen
// would run on fresh scratch, which the engine's steady state does not.
// Reports inc-ns/regen and full-ns/regen, the mean time of a regen delta on
// each engine, and speedup-x = mean full / mean incremental.
func BenchmarkStreamIncrementalRegen(b *testing.B) {
	var incNS, fullNS float64
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inc, ds := benchExpirySetup(b)
		regen := make([]bool, len(ds))
		for k, d := range ds {
			b.StartTimer()
			start := time.Now()
			res, err := inc.Apply(context.Background(), d)
			elapsed := time.Since(start)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if regen[k] = res.Resolve == ResolveRegen; regen[k] {
				incNS += float64(elapsed.Nanoseconds())
				n++
			}
		}
		full, _ := benchExpirySetup(b)
		for k, d := range ds {
			if !regen[k] {
				// Keep the twin in lockstep.
				if _, err := full.Apply(context.Background(), d); err != nil {
					b.Fatal(err)
				}
				continue
			}
			full.dirty = true // force the full candidate-DP path
			start := time.Now()
			fres, err := full.Apply(context.Background(), d)
			if err != nil {
				b.Fatal(err)
			}
			fullNS += float64(time.Since(start).Nanoseconds())
			if fres.Resolve != ResolveRegen {
				b.Fatalf("forced full regen resolved %q", fres.Resolve)
			}
		}
	}
	if n == 0 {
		b.Fatal("stream produced no regen resolves")
	}
	b.ReportMetric(incNS/float64(n), "inc-ns/regen")
	b.ReportMetric(fullNS/float64(n), "full-ns/regen")
	b.ReportMetric(fullNS/incNS, "speedup-x")
}

// BenchmarkStreamWarmVsCold pins the tentpole claim: applying a delta to the
// warm engine versus cold-solving the mutated instance from scratch, on the
// same delta sequence. The cold solve is what an engine-less deployment
// runs: vdps.Generate, then game.FGT with the options the engine replays.
// Reports speedup-x = mean cold / mean warm.
func BenchmarkStreamWarmVsCold(b *testing.B) {
	var warmNS, coldNS float64
	var warmN, coldN int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, ds := benchSetup(b)
		base := eng.Snapshot().Instance
		for j, d := range ds {
			start := time.Now()
			if _, err := eng.Apply(context.Background(), d); err != nil {
				b.Fatal(err)
			}
			warmNS += float64(time.Since(start).Nanoseconds())
			warmN++
			// Cold baseline on three sampled prefixes, not every delta — a
			// full per-delta cold sweep would dominate the benchmark run.
			if (j+1)%(len(ds)/3+1) != 0 {
				continue
			}
			replayed := base.Clone()
			if err := Replay(replayed, ds[:j+1]...); err != nil {
				b.Fatal(err)
			}
			start = time.Now()
			g, err := vdps.Generate(replayed, benchVDPS())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := game.FGT(context.Background(), game.NewState(g), game.Options{Seed: 7}); err != nil {
				b.Fatal(err)
			}
			coldNS += float64(time.Since(start).Nanoseconds())
			coldN++
		}
	}
	b.StopTimer()
	warm := warmNS / float64(warmN)
	cold := coldNS / float64(coldN)
	b.ReportMetric(warm, "warm-ns/delta")
	b.ReportMetric(cold, "cold-ns/solve")
	b.ReportMetric(cold/warm, "speedup-x")
}
