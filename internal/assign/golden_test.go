package assign

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

	"fairtask/internal/dataset"
	"fairtask/internal/game"
	"fairtask/internal/geo"
	"fairtask/internal/model"
	"fairtask/internal/travel"
	"fairtask/internal/vdps"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/baselines.golden")

// TestBaselinesGolden pins the results of the baselines that call
// game.State.TopAvailable as points run out — GTA's greedy, MMTA's
// worst-off moves, and MPTA's greedy warm start and local search — to
// digests recorded from an earlier TopAvailable (regenerate with -update
// after a deliberate change). The instances are W200 (200 workers for 150
// points), a GM instance with more workers than points and the tie-heavy
// lattice; MPTA runs at a node budget that keeps each case well under a
// second. The other baseline tests check validity and determinism only.
func TestBaselinesGolden(t *testing.T) {
	gm := func(seed int64, tasks, workers, points int, eps float64) *vdps.Generator {
		in, err := dataset.GenerateGM(dataset.GMConfig{
			Seed: seed, Tasks: tasks, Workers: workers, DeliveryPoints: points,
		})
		if err != nil {
			t.Fatal(err)
		}
		g, err := vdps.Generate(in, vdps.Options{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	mpta := MPTA{NodeBudget: 20_000}
	cases := []struct {
		name    string
		g       *vdps.Generator
		solvers []Assigner
	}{
		{"w200", gm(1, 1000, 200, 150, 0.6), []Assigner{GTA{}, MMTA{}}},
		{"crowded", gm(3, 300, 60, 40, 0.8), []Assigner{GTA{}, MMTA{}, mpta}},
		{"lattice", mustGen(t, latticeInstance()), []Assigner{GTA{}, MMTA{}, mpta}},
	}
	var buf bytes.Buffer
	for _, tc := range cases {
		for _, a := range tc.solvers {
			res, err := a.Assign(context.Background(), game.NewState(tc.g))
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, a.Name(), err)
			}
			fmt.Fprintf(&buf, "%s %s %016x assigned %d\n", tc.name, a.Name(), resultDigest(res), res.Summary.Assigned)
		}
	}
	golden := filepath.Join("testdata", "baselines.golden")
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
		t.Errorf("baseline results changed; run with -update if intended.\ngot:\n%s\nwant:\n%s", buf.String(), want)
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

// latticeInstance is a tie-heavy instance (a copy of the vdps test helper):
// the 24 integer points of [-2,2]² around a center at the origin, under the
// Manhattan metric at speed 1, with rewards 1-3, so many strategies of one
// worker have exactly equal payoffs.
func latticeInstance() *model.Instance {
	in := &model.Instance{
		Center: geo.Pt(0, 0),
		Travel: travel.MustModel(geo.Manhattan{}, 1),
	}
	for x := -2; x <= 2; x++ {
		for y := -2; y <= 2; y++ {
			if x == 0 && y == 0 {
				continue
			}
			id := len(in.Points)
			in.Points = append(in.Points, model.DeliveryPoint{
				ID:  id,
				Loc: geo.Pt(float64(x), float64(y)),
				Tasks: []model.Task{{
					ID: id, Point: id, Expiry: 100, Reward: float64(1 + id%3),
				}},
			})
		}
	}
	for w := 0; w < 8; w++ {
		in.Workers = append(in.Workers, model.Worker{
			ID: w, Loc: geo.Pt(float64(w%3-1), float64(w/3-1)), MaxDP: 3,
		})
	}
	return in
}
