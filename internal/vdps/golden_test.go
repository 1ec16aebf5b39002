package vdps

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"fairtask/internal/dataset"
	"fairtask/internal/model"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/generate.golden")

// TestGenerateGolden pins the candidate table of every instance below, tie
// survivors included, to a digest recorded from an earlier kernel
// (regenerate with -update after a deliberate change). The reference test
// covers tie-free inputs only, and the tie test only run-to-run determinism,
// so this is the pin that a kernel keeping the last tied sequence instead of
// the first would fail: the lattice cases are full of exact (Time, Slack)
// ties.
func TestGenerateGolden(t *testing.T) {
	gm := func(seed int64, tasks, workers, points int) *model.Instance {
		in, err := dataset.GenerateGM(dataset.GMConfig{
			Seed: seed, Tasks: tasks, Workers: workers, DeliveryPoints: points,
		})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	lattice := latticeInstance()
	cases := []struct {
		name string
		in   *model.Instance
		opt  Options
	}{
		{"w200", gm(1, 1000, 200, 150), Options{Epsilon: 0.6}},
		{"stream", gm(7, 360, 8, 120), Options{Epsilon: 1.5}},
		{"unpruned", gm(1, 200, 40, 60), Options{}},
		{"lattice", lattice, Options{}},
		{"lattice-eps2", lattice, Options{Epsilon: 2}},
		{"lattice-maxsize4", lattice, Options{MaxSize: 4}},
	}
	var buf bytes.Buffer
	for _, tc := range cases {
		g, err := Generate(tc.in, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&buf, "%s %016x %+v\n", tc.name, candidateDigest(g.Candidates()), g.Stats())
	}
	golden := filepath.Join("testdata", "generate.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if buf.String() != string(want) {
		t.Errorf("candidate tables changed; run with -update if intended.\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// candidateDigest is an FNV-64a digest of a candidate table: every
// candidate's points, reward bits and frontier, each state's Time and Slack
// bits and its sequence.
func candidateDigest(cands []Candidate) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, c := range cands {
		put(uint64(len(c.Points)))
		for _, p := range c.Points {
			put(uint64(p))
		}
		put(math.Float64bits(c.Reward))
		put(uint64(len(c.Frontier)))
		for _, st := range c.Frontier {
			put(math.Float64bits(st.Time))
			put(math.Float64bits(st.Slack))
			for _, p := range st.Seq {
				put(uint64(p))
			}
		}
	}
	return h.Sum64()
}
