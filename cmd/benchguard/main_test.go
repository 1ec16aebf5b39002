package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleStream = `{"Action":"output","Package":"fairtask/internal/game","Output":"BenchmarkSolveFGT/W200-4         \t       1\t  31415926 ns/op\t 1024 B/op\t 12 allocs/op\n"}
{"Action":"output","Package":"fairtask/internal/game","Output":"BenchmarkSolveFGT/W200-4         \t       1\t  29000000 ns/op\n"}
{"Action":"output","Package":"fairtask/internal/game","Output":"some unrelated output\n"}
{"Action":"output","Package":"fairtask/internal/platform","Test":"BenchmarkBatch/pool=2","Output":"       2\t   2598992 ns/op\n"}
{"Action":"run","Package":"fairtask/internal/game"}
BenchmarkPlainText-8   	     100	    5000 ns/op
`

func TestParse(t *testing.T) {
	got, samples := map[string]figures{}, map[string]int{}
	if err := parse(strings.NewReader(sampleStream), got, samples); err != nil {
		t.Fatal(err)
	}
	// Duplicate results keep the minimum, the -4/-8 suffixes are stripped,
	// and bare result lines take their name from the event's Test field.
	want := map[string]float64{
		"BenchmarkSolveFGT/W200": 29000000,
		"BenchmarkBatch/pool=2":  2598992,
		"BenchmarkPlainText":     5000,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for name, ns := range want {
		if got[name]["ns/op"] != ns {
			t.Errorf("%s = %v, want %v ns/op", name, got[name], ns)
		}
	}
	// B/op and allocs/op are read where the line reports them, and only
	// there.
	if f := got["BenchmarkSolveFGT/W200"]; f["B/op"] != 1024 || f["allocs/op"] != 12 {
		t.Errorf("BenchmarkSolveFGT/W200 = %v; want 1024 B/op and 12 allocs/op", f)
	}
	for _, unit := range []string{"B/op", "allocs/op"} {
		if _, ok := got["BenchmarkPlainText"][unit]; ok {
			t.Errorf("BenchmarkPlainText has %s without reporting it: %v", unit, got["BenchmarkPlainText"])
		}
	}
	// Every result line counts as one sample.
	if want := map[string]int{"BenchmarkSolveFGT/W200": 2, "BenchmarkBatch/pool=2": 1, "BenchmarkPlainText": 1}; !maps.Equal(samples, want) {
		t.Errorf("samples = %v, want %v", samples, want)
	}
}

// countStream is the test2json shape of a -count 3 run: the first result
// line carries the Test field, the later ones arrive as a name fragment and
// a bare figures line with no Test field, or as one unnamed full line.
const countStream = `{"Action":"output","Package":"fairtask","Test":"BenchmarkSolveFGT","Output":"BenchmarkSolveFGT-2           \t"}
{"Action":"output","Package":"fairtask","Test":"BenchmarkSolveFGT","Output":"       2\t   1203582 ns/op\t 1162840 B/op\t     889 allocs/op\n"}
{"Action":"output","Package":"fairtask","Output":"BenchmarkSolveFGT-2           \t"}
{"Action":"output","Package":"fairtask","Output":"       2\t   1268326 ns/op\t 1162624 B/op\t     888 allocs/op\n"}
{"Action":"output","Package":"fairtask","Output":"BenchmarkSolveFGT-2           \t       2\t   1143924 ns/op\t 1162576 B/op\t     887 allocs/op\n"}
`

// TestParseCountsUnnamedSamples pins that every sample of a -count run is
// read, including the result lines test2json emits without a Test field.
func TestParseCountsUnnamedSamples(t *testing.T) {
	got, samples := map[string]figures{}, map[string]int{}
	if err := parse(strings.NewReader(countStream), got, samples); err != nil {
		t.Fatal(err)
	}
	if n := samples["BenchmarkSolveFGT"]; n != 3 || len(samples) != 1 {
		t.Fatalf("samples = %v, want BenchmarkSolveFGT: 3", samples)
	}
	if f := got["BenchmarkSolveFGT"]; f["ns/op"] != 1143924 || f["B/op"] != 1162576 || f["allocs/op"] != 887 {
		t.Fatalf("figures = %v, want the minima 1143924 ns/op, 1162576 B/op and 887 allocs/op", f)
	}
}

func TestCheck(t *testing.T) {
	ns := func(v float64) figures { return figures{"ns/op": v} }
	baseline := map[string]figures{
		"BenchmarkA": ns(100), "BenchmarkB": ns(100), "BenchmarkGone": ns(50),
		"BenchmarkAllocs":     {"ns/op": 100, "allocs/op": 1000},
		"BenchmarkAllocsFlat": {"ns/op": 100, "allocs/op": 1000},
		"BenchmarkBytes":      {"ns/op": 100, "B/op": 1e6, "allocs/op": 1000},
		"BenchmarkBytesFlat":  {"ns/op": 100, "B/op": 1e6},
		"BenchmarkNoMem":      {"ns/op": 100, "allocs/op": 1000},
		"BenchmarkStale":      {"ns/op": 100, "B/op": 1e6, "allocs/op": 1000},
	}
	current := map[string]figures{
		"BenchmarkA": ns(110), "BenchmarkB": ns(120), "BenchmarkNew": ns(7),
		"BenchmarkAllocs":     {"ns/op": 90, "allocs/op": 1300},
		"BenchmarkAllocsFlat": {"ns/op": 90, "allocs/op": 1100},
		"BenchmarkBytes":      {"ns/op": 100, "B/op": 1.2e6, "allocs/op": 1000},
		"BenchmarkBytesFlat":  {"ns/op": 100, "B/op": 1.1e6, "allocs/op": 5000},
		"BenchmarkNoMem":      ns(100),
		"BenchmarkStale":      {"ns/op": 50, "B/op": 0.8e6, "allocs/op": 900},
	}
	samples := map[string]int{}
	for name := range current {
		samples[name] = minSamples
	}
	// A B/op rise beyond the tolerance fails on its own, at unchanged ns/op
	// and allocs/op; one within it passes, and so does a rise in a figure
	// the row does not baseline.
	bad, info := check(baseline, current, samples, 0.15)
	if len(bad) != 3 || !strings.Contains(bad[0], "BenchmarkAllocs regressed") ||
		!strings.Contains(bad[0], "allocs/op") || !strings.Contains(bad[1], "BenchmarkB regressed") ||
		!strings.Contains(bad[2], "BenchmarkBytes regressed 20.0%: 1200000 B/op") {
		t.Fatalf("regressions = %v, want BenchmarkAllocs (allocs/op), BenchmarkB and BenchmarkBytes (B/op)", bad)
	}
	// A baselined benchmark with fewer than three samples fails even when
	// its figures are within tolerance; an unbaselined one is not gated.
	samples["BenchmarkA"], samples["BenchmarkNew"] = 2, 1
	bad, _ = check(baseline, current, samples, 0.15)
	if len(bad) != 4 || bad[0] != "BenchmarkA has 2 samples, need at least 3 (run it with -count 3)" {
		t.Fatalf("failures with BenchmarkA at 2 samples = %v", bad)
	}
	joined := strings.Join(info, "\n")
	if !strings.Contains(joined, "BenchmarkGone") || !strings.Contains(joined, "BenchmarkNew") {
		t.Errorf("info lines missing baseline-only/new benchmarks:\n%s", joined)
	}
	if !strings.Contains(joined, "BenchmarkNoMem allocs/op in baseline but not in inputs") {
		t.Errorf("info lines missing the unreported allocs/op of BenchmarkNoMem:\n%s", joined)
	}
	// A B/op figure more than the tolerance below its baseline passes with
	// a note to re-take the row; one within it (allocs/op -10%), and any
	// ns/op drop, gets none.
	if !strings.Contains(joined, "note: BenchmarkStale reads 20.0% below its baseline: 800000 B/op (baseline 1000000); re-take it") {
		t.Errorf("info lines missing the stale B/op of BenchmarkStale:\n%s", joined)
	}
	if strings.Contains(joined, "BenchmarkStale reads 10.0%") || strings.Contains(joined, "BenchmarkStale reads 50.0%") {
		t.Errorf("info lines note a figure within the tolerance or an ns/op drop:\n%s", joined)
	}
}

// TestCheckZeroBaseline: a B/op or allocs/op baseline of 0 means the path
// must stay allocation-free, so any rise fails; an ns/op of 0 gates
// nothing.
func TestCheckZeroBaseline(t *testing.T) {
	baseline := map[string]figures{
		"BenchmarkAllocFree":  {"allocs/op": 0},
		"BenchmarkByteFree":   {"B/op": 0, "allocs/op": 0},
		"BenchmarkStillFree":  {"B/op": 0, "allocs/op": 0},
		"BenchmarkZeroNsOnly": {"ns/op": 0},
	}
	current := map[string]figures{
		"BenchmarkAllocFree":  {"ns/op": 4, "B/op": 0, "allocs/op": 1},
		"BenchmarkByteFree":   {"ns/op": 4, "B/op": 8, "allocs/op": 0},
		"BenchmarkStillFree":  {"ns/op": 4, "B/op": 0, "allocs/op": 0},
		"BenchmarkZeroNsOnly": {"ns/op": 900},
	}
	samples := map[string]int{}
	for name := range current {
		samples[name] = minSamples
	}
	bad, _ := check(baseline, current, samples, 0.15)
	want := []string{
		"BenchmarkAllocFree regressed: 1 allocs/op (baseline 0, which must stay 0)",
		"BenchmarkByteFree regressed: 8 B/op (baseline 0, which must stay 0)",
	}
	if strings.Join(bad, "\n") != strings.Join(want, "\n") {
		t.Fatalf("regressions = %q, want %q", bad, want)
	}
}

func TestRunUpdateThenCheck(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.json")
	base := filepath.Join(dir, "baseline.json")
	var out, errb bytes.Buffer
	// The sample stream has one result line for two of its benchmarks:
	// -update refuses it and writes nothing.
	if err := os.WriteFile(in, []byte(sampleStream), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-baseline", base, "-update", in}, &out, &errb); code != 2 {
		t.Fatalf("update of single samples exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "BenchmarkPlainText has 1 samples") {
		t.Errorf("stderr does not name the undersampled benchmark: %s", errb.String())
	}
	if _, err := os.Stat(base); !os.IsNotExist(err) {
		t.Fatalf("refused update wrote the baseline (stat: %v)", err)
	}
	// Three copies of the stream give every benchmark at least three
	// samples and the same minima.
	sampled := strings.Repeat(sampleStream, minSamples)
	if err := os.WriteFile(in, []byte(sampled), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-baseline", base, "-update", in}, &out, &errb); code != 0 {
		t.Fatalf("update exited %d: %s", code, errb.String())
	}
	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var baseline map[string]figures
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	if f := baseline["BenchmarkSolveFGT/W200"]; f["ns/op"] != 29000000 || f["allocs/op"] != 12 {
		t.Fatalf("baseline = %v", baseline)
	}
	// Same inputs against the fresh baseline pass.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-baseline", base, in}, &out, &errb); code != 0 {
		t.Fatalf("check exited %d: %s", code, errb.String())
	}
	// Checking single samples against that baseline fails, naming the
	// benchmark and its count.
	if err := os.WriteFile(in, []byte(sampleStream), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-baseline", base, in}, &out, &errb); code != 1 {
		t.Fatalf("single-sample check exited %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "BenchmarkPlainText has 1 samples") {
		t.Errorf("stderr missing the sample-count failure: %s", errb.String())
	}
	// A 20x slowdown fails at the default 15% tolerance.
	slow := strings.ReplaceAll(sampled, "29000000 ns/op", "580000000 ns/op")
	slow = strings.ReplaceAll(slow, "31415926 ns/op", "620000000 ns/op")
	if err := os.WriteFile(in, []byte(slow), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-baseline", base, in}, &out, &errb); code != 1 {
		t.Fatalf("regressed run exited %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "BenchmarkSolveFGT/W200 regressed") {
		t.Errorf("stderr missing regression line: %s", errb.String())
	}
	// An allocation regression alone, at unchanged ns/op, also fails.
	leaky := strings.ReplaceAll(sampled, "12 allocs/op", "40 allocs/op")
	if err := os.WriteFile(in, []byte(leaky), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-baseline", base, in}, &out, &errb); code != 1 {
		t.Fatalf("allocation-regressed run exited %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "40 allocs/op (baseline 12") {
		t.Errorf("stderr missing allocs/op regression line: %s", errb.String())
	}
}
