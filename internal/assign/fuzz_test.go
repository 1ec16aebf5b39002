package assign

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"testing"

	"fairtask/internal/game"
	"fairtask/internal/vdps"
)

// FuzzLexifairMatrix drives the payoff-matrix builder and the solver over
// randomized instance shapes, including corrupted task rewards (NaN,
// infinite, negative): no input may panic, and every rejection must be
// typed with ErrLexMatrix so callers can classify it with errors.Is.
func FuzzLexifairMatrix(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(1), 100.0, int64(1), uint8(0))
	f.Add(uint8(5), uint8(3), uint8(2), 8.0, int64(2), uint8(0))
	f.Add(uint8(4), uint8(0), uint8(1), 100.0, int64(3), uint8(0))
	f.Add(uint8(4), uint8(3), uint8(1), 100.0, int64(4), uint8(1))
	f.Add(uint8(4), uint8(3), uint8(2), 6.0, int64(5), uint8(2))
	f.Add(uint8(3), uint8(2), uint8(1), 0.5, int64(6), uint8(4))
	f.Add(uint8(3), uint8(2), uint8(1), math.Inf(1), int64(7), uint8(1))

	f.Fuzz(func(t *testing.T, np, nw, maxDP uint8, expiry float64, seed int64, corrupt uint8) {
		nPoints := int(np%6) + 1
		nWorkers := int(nw % 6) // 0 workers is a valid shape: ErrNoWorkers
		dp := int(maxDP%3) + 1
		in := gridInstance(nPoints, nWorkers, dp, expiry, seed)
		if corrupt&1 != 0 {
			in.Points[0].Tasks[0].Reward = math.NaN()
		}
		if corrupt&2 != 0 {
			in.Points[0].Tasks[1].Reward = math.Inf(1)
		}
		if corrupt&4 != 0 {
			in.Points[nPoints-1].Tasks[0].Reward = -5
		}
		g, err := vdps.Generate(in, vdps.Options{})
		if err != nil {
			return // generator rejection is fine; panics are not
		}
		if _, err := newLexMatrix(g, game.NewState(g).Strategies); err != nil {
			if !errors.Is(err, ErrLexMatrix) {
				t.Fatalf("builder rejection %v is not typed as ErrLexMatrix", err)
			}
			return
		}
		res, err := (Lexifair{NodeBudget: 20000}).Assign(context.Background(), game.NewState(g))
		if err != nil {
			if !errors.Is(err, game.ErrNoWorkers) && !errors.Is(err, ErrLexMatrix) {
				t.Fatalf("unexpected solver error: %v", err)
			}
			return
		}
		if len(res.Assignment.Routes) != len(in.Workers) {
			t.Fatalf("result has %d routes for %d workers", len(res.Assignment.Routes), len(in.Workers))
		}
	})
}

// A corrupted candidate table (the generator shares it with callers) must
// surface as a typed builder error, never a panic — the non-finite payoff
// branch of the validation that the fuzz target cannot reach reliably.
func TestLexMatrixRejectsNonFinitePayoff(t *testing.T) {
	in := gridInstance(4, 2, 1, 100, 9)
	g := mustGen(t, in)
	cands := g.Candidates()
	if len(cands) == 0 {
		t.Skip("no candidates generated")
	}
	cands[0].Reward = math.NaN()
	_, err := newLexMatrix(g, game.NewState(g).Strategies)
	if err == nil {
		t.Fatal("builder accepted a NaN candidate reward")
	}
	if !errors.Is(err, ErrLexMatrix) {
		t.Fatalf("rejection %v is not typed as ErrLexMatrix", err)
	}
	if _, err := (Lexifair{}).Assign(context.Background(), game.NewState(g)); !errors.Is(err, ErrLexMatrix) {
		t.Fatalf("solver error %v is not typed as ErrLexMatrix", err)
	}
}

// Concurrent solves over one shared generator must be race-free and
// deterministic — the solver may only read the generator. Exercised by the
// CI race matrix for internal/assign.
func TestLexifairConcurrentSolvesRace(t *testing.T) {
	in := gridInstance(8, 4, 2, 100, 10)
	g := mustGen(t, in)
	want, err := (Lexifair{}).Assign(context.Background(), game.NewState(g))
	if err != nil {
		t.Fatal(err)
	}
	wantVec := lexVector(t, g, want.Assignment)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	vecs := make([][]float64, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := (Lexifair{}).Assign(context.Background(), game.NewState(g))
			if err != nil {
				errs[i] = err
				return
			}
			s := game.NewState(g)
			if err := s.LoadAssignment(res.Assignment); err != nil {
				errs[i] = err
				return
			}
			vec := append([]float64(nil), s.Payoffs...)
			vecs[i] = vec
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
		sorted := append([]float64(nil), vecs[i]...)
		sort.Float64s(sorted)
		if !sameVector(sorted, wantVec) {
			t.Fatalf("goroutine %d: vector %v != sequential %v", i, sorted, wantVec)
		}
	}
}

// BenchmarkLexifair times a full lexifair solve on the benchmark-scale grid
// instance; benchguard gates it via BENCH_assign.json.
func BenchmarkLexifair(b *testing.B) {
	in := gridInstance(12, 6, 2, 100, 7)
	g, err := vdps.Generate(in, vdps.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Lexifair{}).Assign(ctx, game.NewState(g)); err != nil {
			b.Fatal(err)
		}
	}
}
