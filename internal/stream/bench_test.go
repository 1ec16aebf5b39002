package stream

import (
	"context"
	"sort"
	"testing"
	"time"

	"fairtask/internal/game"
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
// latency distribution and repair locality:
//
//	p50-ns/delta, p99-ns/delta    delta-apply latency percentiles
//	workers-touched/delta         strategy rebuild footprint per delta
//
// Each iteration applies the whole stream to a fresh engine, built with the
// timer stopped: re-applying it to one engine would set prices that are
// already set, and those deltas take the noop path.
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
}

// BenchmarkStreamStrategyRepair isolates the warm path's strategy-space
// maintenance on the reprice-heavy regime: recomputing every payoff of a
// worker's cached strategy list in place (vdps.RepairStrategyPayoffs)
// versus re-enumerating it from the candidate table
// (vdps.WorkerStrategies), which is what the warm path did before in-place
// repair existed. Reports speedup-x = mean enumeration / mean repair.
func BenchmarkStreamStrategyRepair(b *testing.B) {
	eng, _ := benchSetup(b)
	gen := eng.gen
	in := eng.inst
	var sc vdps.StrategyScratch
	cached := make([][]vdps.StrategyRef, len(in.Workers))
	for w := range in.Workers {
		cached[w] = append([]vdps.StrategyRef(nil), gen.WorkerStrategies(w, &sc)...)
	}
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
		for w := range in.Workers {
			start := time.Now()
			gen.RepairStrategyPayoffs(w, cached[w])
			repairNS += float64(time.Since(start).Nanoseconds())
			start = time.Now()
			want := gen.WorkerStrategies(w, &sc)
			enumNS += float64(time.Since(start).Nanoseconds())
			if len(want) != len(cached[w]) {
				b.Fatal("repair and enumeration disagree")
			}
			n++
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
// against a full candidate-DP re-run on the same expiry-moving deltas: two
// engines apply the identical stream, with the second forced to regenerate
// from scratch (its warm structures marked dirty) exactly at the deltas the
// first served incrementally. Reports speedup-x = mean full / mean
// incremental.
func BenchmarkStreamIncrementalRegen(b *testing.B) {
	var incNS, fullNS float64
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inc, ds := benchExpirySetup(b)
		full, _ := benchExpirySetup(b)
		b.StartTimer()
		for _, d := range ds {
			start := time.Now()
			res, err := inc.Apply(context.Background(), d)
			if err != nil {
				b.Fatal(err)
			}
			elapsed := time.Since(start)
			if res.Resolve != ResolveRegen {
				// Keep the twin in lockstep without timing it.
				if _, err := full.Apply(context.Background(), d); err != nil {
					b.Fatal(err)
				}
				continue
			}
			incNS += float64(elapsed.Nanoseconds())
			full.dirty = true // force the full candidate-DP path
			start = time.Now()
			fres, err := full.Apply(context.Background(), d)
			if err != nil {
				b.Fatal(err)
			}
			fullNS += float64(time.Since(start).Nanoseconds())
			if fres.Resolve != ResolveRegen {
				b.Fatalf("forced full regen resolved %q", fres.Resolve)
			}
			n++
		}
	}
	b.StopTimer()
	if n == 0 {
		b.Fatal("stream produced no regen resolves")
	}
	b.ReportMetric(incNS/float64(n), "inc-ns/regen")
	b.ReportMetric(fullNS/float64(n), "full-ns/regen")
	b.ReportMetric(fullNS/incNS, "speedup-x")
}

// BenchmarkStreamWarmVsCold pins the tentpole claim: applying a delta to the
// warm engine versus cold-solving the mutated instance from scratch, on the
// same delta sequence. Reports speedup-x = mean cold / mean warm.
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
			if _, err := game.ReferenceFGT(context.Background(), g, game.Options{Seed: 7}); err != nil {
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
