package evo

import (
	"context"
	"testing"

	"fairtask/internal/game"
	"fairtask/internal/vdps"
)

func BenchmarkIEGT(b *testing.B) {
	in := gridInstance(20, 10, 3, 100, 1)
	g, err := vdps.Generate(in, vdps.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := IEGT(context.Background(), game.NewState(g), Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
