package evo

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"fairtask/internal/assign"
	"fairtask/internal/dataset"
	"fairtask/internal/game"
	"fairtask/internal/vdps"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/dynamics.golden")

// TestDynamicsGolden pins FGT and IEGT at seed 1 on W200 — GM seed 1 with
// 1,000 tasks, 200 workers and 150 points at ε 0.6, the served solve-w200
// instance — and on W100, the same instance with 100 workers, to digests
// recorded from an earlier build (regenerate with -update after a
// deliberate change): every worker's route and payoff bits, with the round
// count, convergence and switch count. W200's 200 workers for 150 points
// pin the random start on its crowded path; on W100 the best response
// moves for several rounds.
func TestDynamicsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, workers := range []int{200, 100} {
		in, err := dataset.GenerateGM(dataset.GMConfig{Seed: 1, Tasks: 1000, Workers: workers, DeliveryPoints: 150})
		if err != nil {
			t.Fatal(err)
		}
		g, err := vdps.Generate(in, vdps.Options{Epsilon: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []assign.Assigner{game.Options{Seed: 1}, Options{Seed: 1}} {
			res, err := a.Assign(context.Background(), game.NewState(g))
			if err != nil {
				t.Fatalf("w%d %s: %v", workers, a.Name(), err)
			}
			fmt.Fprintf(&buf, "w%d %s %016x iterations %d converged %v switches %d assigned %d\n",
				workers, a.Name(), resultDigest(res), res.Iterations, res.Converged, res.Switches, res.Summary.Assigned)
		}
	}
	golden := filepath.Join("testdata", "dynamics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if buf.String() != string(want) {
		t.Errorf("solver results changed; run with -update if intended.\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// resultDigest is an FNV-64a digest of a result: every worker's route and
// payoff bits.
func resultDigest(res *game.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for w, r := range res.Assignment.Routes {
		put(uint64(len(r)))
		for _, p := range r {
			put(uint64(p))
		}
		put(math.Float64bits(res.Summary.Payoffs[w]))
	}
	return h.Sum64()
}
