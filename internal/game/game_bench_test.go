package game

import (
	"context"
	"testing"

	"fairtask/internal/dataset"
	"fairtask/internal/vdps"
)

func benchSetup(b *testing.B, nPoints, nWorkers int) *vdps.Generator {
	b.Helper()
	in := gridInstance(nPoints, nWorkers, 3, 100)
	g, err := vdps.Generate(in, vdps.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkNewStateW200 is the strategy-space build layer of the W200 solve
// (GM 1000 tasks / 200 workers / 150 points, ε 0.6): the state.build span of
// BenchmarkSolveFGTW200 and of servebench's solve-w200 workload.
func BenchmarkNewStateW200(b *testing.B) {
	in, err := dataset.GenerateGM(dataset.GMConfig{
		Seed: 1, Tasks: 1000, Workers: 200, DeliveryPoints: 150,
	})
	if err != nil {
		b.Fatal(err)
	}
	g, err := vdps.Generate(in, vdps.Options{Epsilon: 0.6})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewState(g)
	}
}

func BenchmarkFGT(b *testing.B) {
	g := benchSetup(b, 20, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FGT(context.Background(), NewState(g), Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBestResponseRound(b *testing.B) {
	g := benchSetup(b, 20, 10)
	s := NewState(g)
	opt := Options{}.withDefaults()
	u, err := newIAUScratch(opt.Fairness, nil, len(s.Current))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := range s.Current {
			bestResponse(s, u, w, opt.EpsilonUtility)
		}
	}
}

// BenchmarkBestResponse measures a single best-response evaluation: the
// top-available scan plus two O(W) IAU evaluations. It must report
// 0 allocs/op.
func BenchmarkBestResponse(b *testing.B) {
	g := benchSetup(b, 20, 10)
	s := NewState(g)
	opt := Options{}.withDefaults()
	u, err := newIAUScratch(opt.Fairness, nil, len(s.Current))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bestResponse(s, u, 0, opt.EpsilonUtility)
	}
}

// BenchmarkReferenceBestResponse is the reference full scan — one O(W) IAU
// evaluation per strategy — kept for comparison with BenchmarkBestResponse.
func BenchmarkReferenceBestResponse(b *testing.B) {
	g := benchSetup(b, 20, 10)
	s := NewState(g)
	opt := Options{}.withDefaults()
	scratch := make([]float64, len(s.Payoffs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceBestResponse(s, 0, opt, nil, scratch)
	}
}
