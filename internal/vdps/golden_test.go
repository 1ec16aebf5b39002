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
	"fairtask/internal/geo"
	"fairtask/internal/model"
	"fairtask/internal/travel"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/generate.golden")

// TestGenerateGolden pins the candidate table of every instance below, tie
// survivors included, to a digest recorded from an earlier kernel
// (regenerate with -update after a deliberate change). The reference test
// covers tie-free inputs only, and the tie test only run-to-run determinism,
// so this is the pin that a kernel keeping the last tied sequence instead of
// the first would fail: the lattice cases are full of exact (Time, Slack)
// ties. The sampled cases pin GenerateSampled, which no oracle covers, with
// its masks: the sampler's are full-width, the DP's trimmed.
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
	w200, stream, small := gm(1, 1000, 200, 150), gm(7, 360, 8, 120), gm(1, 200, 40, 60)
	// Workers that accept routes of any length, the sampler's use case.
	long := gm(3, 300, 20, 80)
	for w := range long.Workers {
		long.Workers[w].MaxDP = 0
	}
	// Manhattan at a speed other than 1, so a leg's distance, its time and
	// its Euclidean length all differ.
	manhattan := gm(5, 300, 20, 60)
	manhattan.Travel = travel.MustModel(geo.Manhattan{}, 1.7)
	cases := []struct {
		name   string
		in     *model.Instance
		opt    Options
		sample *SampleOptions // GenerateSampled's options, nil for Generate
	}{
		{"w200", w200, Options{Epsilon: 0.6}, nil},
		{"stream", stream, Options{Epsilon: 1.5}, nil},
		{"unpruned", small, Options{}, nil},
		{"lattice", lattice, Options{}, nil},
		{"lattice-eps2", lattice, Options{Epsilon: 2}, nil},
		{"lattice-maxsize4", lattice, Options{MaxSize: 4}, nil},
		{"stream-noindex", stream, Options{Epsilon: 1.5, DisableIndex: true}, nil},
		{"manhattan-noindex", manhattan, Options{Epsilon: 1, DisableIndex: true}, nil},
		{"sampled-w200", w200, Options{}, &SampleOptions{Epsilon: 0.6, MaxSize: 3, Seed: 1}},
		{"sampled-stream", stream, Options{}, &SampleOptions{Epsilon: 1.5, Seed: 2}},
		{"sampled-unpruned", small, Options{}, &SampleOptions{MaxSize: 4, Seed: 3}},
		{"sampled-long-eps2", long, Options{}, &SampleOptions{Epsilon: 2, Seed: 4}},
		{"sampled-long", long, Options{}, &SampleOptions{Seed: 5}},
		{"sampled-manhattan", manhattan, Options{}, &SampleOptions{Epsilon: 1, Seed: 6}},
	}
	var buf bytes.Buffer
	for _, tc := range cases {
		var g *Generator
		var err error
		if tc.sample != nil {
			g, err = GenerateSampled(tc.in, *tc.sample)
		} else {
			g, err = Generate(tc.in, tc.opt)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&buf, "%s %016x %+v\n", tc.name, candidateDigest(g.Candidates(), tc.sample != nil), g.Stats())
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
// bits and its sequence, and with masks set its mask words too.
func candidateDigest(cands []Candidate, masks bool) uint64 {
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
		if masks {
			put(uint64(len(c.Mask)))
			for _, w := range c.Mask {
				put(w)
			}
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
