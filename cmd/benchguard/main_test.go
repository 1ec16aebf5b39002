package main

import (
	"bytes"
	"encoding/json"
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
	got := map[string]figures{}
	if err := parse(strings.NewReader(sampleStream), got); err != nil {
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
	// allocs/op is read where the line reports it, and only there.
	if a, ok := got["BenchmarkSolveFGT/W200"]["allocs/op"]; !ok || a != 12 {
		t.Errorf("BenchmarkSolveFGT/W200 allocs/op = %v, %v; want 12", a, ok)
	}
	if _, ok := got["BenchmarkPlainText"]["allocs/op"]; ok {
		t.Errorf("BenchmarkPlainText has allocs/op without reporting them: %v", got["BenchmarkPlainText"])
	}
}

func TestCheck(t *testing.T) {
	ns := func(v float64) figures { return figures{"ns/op": v} }
	baseline := map[string]figures{
		"BenchmarkA": ns(100), "BenchmarkB": ns(100), "BenchmarkGone": ns(50),
		"BenchmarkAllocs":     {"ns/op": 100, "allocs/op": 1000},
		"BenchmarkAllocsFlat": {"ns/op": 100, "allocs/op": 1000},
		"BenchmarkNoMem":      {"ns/op": 100, "allocs/op": 1000},
	}
	current := map[string]figures{
		"BenchmarkA": ns(110), "BenchmarkB": ns(120), "BenchmarkNew": ns(7),
		"BenchmarkAllocs":     {"ns/op": 90, "allocs/op": 1300},
		"BenchmarkAllocsFlat": {"ns/op": 90, "allocs/op": 1100},
		"BenchmarkNoMem":      ns(100),
	}
	bad, info := check(baseline, current, 0.15)
	if len(bad) != 2 || !strings.Contains(bad[0], "BenchmarkAllocs regressed") ||
		!strings.Contains(bad[0], "allocs/op") || !strings.Contains(bad[1], "BenchmarkB") {
		t.Fatalf("regressions = %v, want BenchmarkAllocs (allocs/op) and BenchmarkB", bad)
	}
	joined := strings.Join(info, "\n")
	if !strings.Contains(joined, "BenchmarkGone") || !strings.Contains(joined, "BenchmarkNew") {
		t.Errorf("info lines missing baseline-only/new benchmarks:\n%s", joined)
	}
	if !strings.Contains(joined, "BenchmarkNoMem allocs/op in baseline but not in inputs") {
		t.Errorf("info lines missing the unreported allocs/op of BenchmarkNoMem:\n%s", joined)
	}
}

func TestRunUpdateThenCheck(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(in, []byte(sampleStream), 0o644); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "baseline.json")
	var out, errb bytes.Buffer
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
	// A 20x slowdown fails at the default 15% tolerance.
	slow := strings.ReplaceAll(sampleStream, "29000000 ns/op", "580000000 ns/op")
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
	leaky := strings.ReplaceAll(sampleStream, "12 allocs/op", "40 allocs/op")
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
