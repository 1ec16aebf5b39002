package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"fairtask/internal/stream"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 0.5, 50}, {100, 0.9, 90}, {101, 0.5, 51}, {106, 0.9, 96}, {400, 0.9, 360},
	} {
		got, err := percentile(seq(c.n), c.p)
		if err != nil || got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v", c.n, c.p, got, err, c.want)
		}
	}
}

func TestPercentileTenBeyondRule(t *testing.T) {
	// p90 of 100 samples leaves ranks 91..100 beyond it: exactly ten.
	if !supported(100, 0.9) {
		t.Error("p90 of 100 samples should be supported")
	}
	for _, n := range []int{99, 60, 0} {
		if supported(n, 0.9) {
			t.Errorf("p90 of %d samples has fewer than ten beyond it", n)
		}
		if _, err := percentile(seq(n), 0.9); err == nil {
			t.Errorf("percentile(p90, n=%d) returned no error", n)
		}
	}
	if !supported(20, 0.5) || supported(19, 0.5) {
		t.Error("p50 needs 20 samples for ten beyond it")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// The command field may hold spaces and parentheses.
	stat := "4242 (fta (serve) x) S 1 4242 4242 0 -1 4194560 1200 0 0 0 250 50 0 0 20 0 9 0 123 1000 200"
	got, err := parseProcStatCPU(stat)
	if err != nil || got != 3.0 {
		t.Fatalf("parseProcStatCPU = %v, %v; want 3.0 s", got, err)
	}
	for _, bad := range []string{"4242 fta S 1", "4242 (fta) S 1 2 3", "4242 (fta) S 1 2 3 4 5 6 7 8 9 10 x 5 0"} {
		if _, err := parseProcStatCPU(bad); err == nil {
			t.Errorf("parseProcStatCPU(%q) accepted", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tfta\nVmPeak:\t  900000 kB\nVmHWM:\t   54272 kB\nVmRSS:\t   50000 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil || got != 53 {
		t.Fatalf("parseVmHWM = %v, %v; want 53 MiB", got, err)
	}
	for _, bad := range []string{"Name:\tfta\n", "VmHWM:\t 12 MB\n", "VmHWM:\t x kB\n"} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) accepted", bad)
		}
	}
}

func TestCheckModeBoundary(t *testing.T) {
	// 106 deltas: p50 is rank 53, p90 rank 96.
	cases := []struct {
		fast int
		ok   bool
	}{
		{73, true}, {64, true}, {63, false}, {43, false}, {42, true}, {85, true}, {86, false}, {106, false},
	}
	for _, c := range cases {
		err := checkModeBoundary(106, c.fast, 0.5, 0.9)
		if (err == nil) != c.ok {
			t.Errorf("checkModeBoundary(106, fast=%d) = %v, want ok=%v", c.fast, err, c.ok)
		}
	}
}

func TestUnion(t *testing.T) {
	iv := [][2]time.Duration{{5, 9}, {0, 4}, {2, 6}, {12, 14}}
	if got := union(iv); got != 11 {
		t.Errorf("union = %v, want 11", got)
	}
}

// TestInputsDeterministic pins the seed contract: the same seed gives the
// same bytes, another seed another presentation, and the relabeled delta
// stream is still valid against the relabeled instance.
func TestInputsDeterministic(t *testing.T) {
	w, err := findWorkload("stream-reprice-expiry")
	if err != nil {
		t.Fatal(err)
	}
	a, err := makeInputs(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeInputs(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := makeInputs(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.body, b.body) || !bytes.Equal(bytes.Join(a.events, nil), bytes.Join(b.events, nil)) {
		t.Error("same seed gave different inputs")
	}
	if bytes.Equal(a.body, c.body) {
		t.Error("different seeds gave the same body")
	}
	for _, in := range []*inputs{a, c} {
		prob, err := readProblem(in.body)
		if err != nil {
			t.Fatal(err)
		}
		if err := stream.Replay(&prob.Instances[0], in.deltas...); err != nil {
			t.Errorf("relabeled stream does not replay: %v", err)
		}
	}
}

// TestPresentationIsNeutral pins why seeds keep runs steady: two seeds'
// presentations of a workload are the same problem to the solver, with
// bit-identical payoffs and the same number of rounds.
func TestPresentationIsNeutral(t *testing.T) {
	for _, name := range []string{"solve-w200", "solve-multicenter-audit", "stream-reprice-expiry"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		var diffs, avgs []float64
		var rounds []int
		for _, seed := range []int64{5, 6} {
			in, err := makeInputs(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			prob, err := readProblem(in.body)
			if err != nil {
				t.Fatal(err)
			}
			rec := newCountingRecorder()
			res, err := solveInProcess(context.Background(), w, prob, rec)
			if err != nil {
				t.Fatal(err)
			}
			diffs, avgs, rounds = append(diffs, res.Difference), append(avgs, res.Average), append(rounds, rec.rounds)
		}
		if diffs[0] != diffs[1] || avgs[0] != avgs[1] || rounds[0] != rounds[1] {
			t.Errorf("%s: seeds 5 and 6 solve differently: P_dif %v, avg %v, rounds %v", name, diffs, avgs, rounds)
		}
	}
}

func TestParseMachineCPU(t *testing.T) {
	steal, total, err := parseMachineCPU("cpu  100 0 20 800 5 0 3 72 9 0\ncpu0 50 0 10 400 2 0 1 36 0 0\n")
	if err != nil || steal != 72 || total != 1000 {
		t.Fatalf("parseMachineCPU = %d, %d, %v; want 72, 1000", steal, total, err)
	}
	if _, _, err := parseMachineCPU("intr 1 2 3\n"); err == nil {
		t.Error("parseMachineCPU accepted a stat without a cpu line")
	}
}
