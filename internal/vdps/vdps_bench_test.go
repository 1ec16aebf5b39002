package vdps

import (
	"math/rand"
	"testing"

	"fairtask/internal/geo"
	"fairtask/internal/model"
	"fairtask/internal/travel"
)

func benchInstance(nPoints int) *model.Instance {
	rng := rand.New(rand.NewSource(1))
	in := &model.Instance{
		Center: geo.Pt(5, 5),
		Travel: travel.MustModel(geo.Euclidean{}, 5),
	}
	for i := 0; i < nPoints; i++ {
		in.Points = append(in.Points, model.DeliveryPoint{
			ID:  i,
			Loc: geo.Pt(rng.Float64()*15, rng.Float64()*15),
			Tasks: []model.Task{
				{ID: i, Point: i, Expiry: 2, Reward: 1},
			},
		})
	}
	in.Workers = []model.Worker{{ID: 0, Loc: geo.Pt(5, 5), MaxDP: 3}}
	return in
}

func BenchmarkGeneratePruned(b *testing.B) {
	in := benchInstance(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(in, Options{Epsilon: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateUnpruned(b *testing.B) {
	in := benchInstance(60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(in, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateSampled(b *testing.B) {
	in := benchInstance(100)
	in.Workers[0].MaxDP = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateSampled(in, SampleOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForWorker(b *testing.B) {
	in := benchInstance(100)
	g, err := Generate(in, Options{Epsilon: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ForWorker(0)
	}
}
