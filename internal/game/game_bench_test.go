package game

import (
	"context"
	"testing"

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

func BenchmarkFGT(b *testing.B) {
	g := benchSetup(b, 20, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FGT(context.Background(), g, Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBestResponseRound(b *testing.B) {
	g := benchSetup(b, 20, 10)
	s := NewState(g)
	opt := Options{}.withDefaults()
	idx := newUtilityIndex(s, opt.Fairness, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := range s.Current {
			bestResponse(s, idx, w, opt)
		}
	}
}

// BenchmarkBestResponse measures a single index-backed best-response
// evaluation; it must report 0 allocs/op (ISSUE 4 acceptance).
func BenchmarkBestResponse(b *testing.B) {
	g := benchSetup(b, 20, 10)
	s := NewState(g)
	opt := Options{}.withDefaults()
	idx := newUtilityIndex(s, opt.Fairness, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bestResponse(s, idx, 0, opt)
	}
}

// BenchmarkReferenceBestResponse is the pre-index O(W)-scan form, kept for
// before/after comparison with BenchmarkBestResponse.
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
