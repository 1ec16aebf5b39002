package stream

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

	"fairtask/internal/vdps"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/stream.golden")

// TestStreamGolden pins the stream of the served stream-reprice-expiry
// workload — GM seed 7 with 360 tasks, 8 workers and 120 points at ε 1.5,
// re-pricings plus short-lived arrivals and their expiries, FGT at seed 7 —
// applied one delta at a time, to a record taken from an earlier build
// (regenerate with -update after a deliberate change). Each delta's line
// holds its seq, resolve path, round count and convergence, and a digest
// of every worker's route and payoff bits after it; Elapsed is left out.
// The stream mixes warm, regen and noop resolves, so this pins the
// repaired lists the warm path plays and the spliced ones the regen path
// plays, delta by delta.
func TestStreamGolden(t *testing.T) {
	in := gmInstance(t, 7, 360, 8, 120)
	ds, err := GenerateStream(in, StreamConfig{Seed: 7, Rate: 40, Duration: 1.8, Lifetime: 0.4, RepriceRate: 30})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{VDPS: vdps.Options{Epsilon: 1.5}}
	opt.Game.Seed = 7
	ctx := context.Background()
	eng, err := New(ctx, in, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, d := range ds {
		res, err := eng.ApplyAll(ctx, []Delta{d})
		if err != nil {
			t.Fatalf("delta %d: %v", d.Seq, err)
		}
		fmt.Fprintf(&buf, "%d %s iterations %d converged %v %016x\n",
			res.Seq, res.Resolve, res.Iterations, res.Converged, snapshotDigest(eng.Snapshot()))
	}
	golden := filepath.Join("testdata", "stream.golden")
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
		t.Errorf("stream results changed; run with -update if intended.\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// snapshotDigest is an FNV-64a digest of a committed equilibrium: every
// worker's route and payoff bits.
func snapshotDigest(s Snapshot) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for w, r := range s.Assignment.Routes {
		put(uint64(len(r)))
		for _, p := range r {
			put(uint64(p))
		}
		put(math.Float64bits(s.Summary.Payoffs[w]))
	}
	return h.Sum64()
}
