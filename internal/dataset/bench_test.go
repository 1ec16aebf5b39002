package dataset

import (
	"bytes"
	"testing"
)

// BenchmarkReadCSV decodes and validates the body BenchmarkServeSolveAudit
// posts to /solve: the SYN problem of seed 1, 32 centers, 3200 tasks, 320
// workers, 640 points. The input fixes its allocs/op and B/op, which the
// regression guard holds; its ns/op depends on the runner.
func BenchmarkReadCSV(b *testing.B) {
	p, err := GenerateSYN(SYNConfig{
		Seed: 1, Centers: 32, Tasks: 3200, Workers: 320, DeliveryPoints: 640,
	})
	if err != nil {
		b.Fatal(err)
	}
	var body bytes.Buffer
	if err := WriteCSV(&body, p); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV(bytes.NewReader(body.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
