package vdps

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"fairtask/internal/dataset"
	"fairtask/internal/model"
)

// TestGenerateScratchParallel interleaves runs of different sizes over the
// kept DP scratch: each result, Stats included, must equal a run on fresh
// scratch, whether the runs go one after another or from GOMAXPROCS
// goroutines at once, and no scratch over scratchCap may stay on the free
// list after a run that needed one.
func TestGenerateScratchParallel(t *testing.T) {
	gm := func(seed int64, tasks, workers, points int) *model.Instance {
		in, err := dataset.GenerateGM(dataset.GMConfig{
			Seed: seed, Tasks: tasks, Workers: workers, DeliveryPoints: points,
		})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	w200, lattice := gm(1, 1000, 200, 150), latticeInstance()
	type job struct {
		name   string
		in     *model.Instance
		opt    Options
		cancel int // cancel at this poll; 0 never
	}
	jobs := []job{
		{name: "w200", in: w200, opt: Options{Epsilon: 0.6}},
		{name: "lattice", in: lattice},
		{name: "three-points", in: lineInstance(3, 100, 3)},
		{name: "canceled", in: w200, opt: Options{Epsilon: 0.6}, cancel: 4},
		{name: "too-many-sets", in: lattice, opt: Options{MaxSets: 100}},
		// The stream instance's cold generation needs more than scratchCap.
		{name: "over-cap", in: gm(7, 360, 8, 120), opt: Options{Epsilon: 1.5}},
		{name: "lattice-maxsize4", in: lattice, opt: Options{MaxSize: 4}},
	}
	type result struct {
		cands []Candidate
		stats Stats
		err   error
	}
	run := func(j job) result {
		ctx := context.Context(context.Background())
		if j.cancel > 0 {
			ctx = &cancelAfter{Context: ctx, n: j.cancel}
		}
		g, err := GenerateContext(ctx, j.in, j.opt)
		if err != nil {
			return result{err: err}
		}
		return result{cands: g.Candidates(), stats: g.Stats()}
	}
	check := func(j job, got, want result) error {
		if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
			return fmt.Errorf("%s: err %v, want %v", j.name, got.err, want.err)
		}
		if got.stats != want.stats || !reflect.DeepEqual(got.cands, want.cands) {
			return fmt.Errorf("%s: result differs from a run on fresh scratch", j.name)
		}
		return nil
	}
	checkKept := func() {
		kept.Lock()
		defer kept.Unlock()
		if len(kept.list) > runtime.GOMAXPROCS(0) {
			t.Errorf("%d scratches kept, GOMAXPROCS %d", len(kept.list), runtime.GOMAXPROCS(0))
		}
		for _, sc := range kept.list {
			if b := sc.bytes(); b > scratchCap {
				t.Errorf("a kept scratch holds %d bytes, over the %d cap", b, scratchCap)
			}
		}
	}

	want := make([]result, len(jobs))
	for i, j := range jobs {
		kept.Lock()
		kept.list = nil
		kept.Unlock()
		want[i] = run(j)
	}
	if !errors.Is(want[3].err, context.Canceled) || !errors.Is(want[4].err, ErrTooManySets) {
		t.Fatalf("the failing runs did not fail: %v, %v", want[3].err, want[4].err)
	}

	for i, j := range jobs {
		if err := check(j, run(j), want[i]); err != nil {
			t.Fatal(err)
		}
		checkKept()
	}

	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range jobs {
				i := (k + w) % len(jobs)
				if err := check(jobs[i], run(jobs[i]), want[i]); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	checkKept()
}

// TestGenerateAllocsFixed bounds what one small center's generation
// allocates: center 0 of the 32-center SYN problem the served
// multicenter-audit solve runs (30 points, ε 2). With its scratch kept, a
// run allocates the generator, its ε-balls and their legs, the validation's
// ID list and the candidate table, each once, so the count is the same
// whether the DP runs one level or three.
func TestGenerateAllocsFixed(t *testing.T) {
	p, err := dataset.GenerateSYN(dataset.SYNConfig{
		Seed: 1, Centers: 32, Tasks: 3200, Workers: 320, DeliveryPoints: 640,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := &p.Instances[0]
	const bound = 24
	var first float64
	for _, maxSize := range []int{1, 2, 3} {
		opt := Options{Epsilon: 2, MaxSize: maxSize}
		g, err := Generate(in, opt)
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(20, func() {
			if _, err := Generate(in, opt); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("MaxSize %d: %d candidates, %v allocations", maxSize, g.Stats().Candidates, n)
		if n > bound {
			t.Errorf("MaxSize %d: %v allocations per Generate, want at most %d", maxSize, n, bound)
		}
		if maxSize == 1 {
			first = n
		} else if n != first {
			t.Errorf("MaxSize %d: %v allocations, %v at MaxSize 1: the count grows with the levels", maxSize, n, first)
		}
	}
}
