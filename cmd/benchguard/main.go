// Command benchguard compares Go benchmark results against a committed
// baseline and exits non-zero when any benchmark regressed beyond the
// tolerance — the CI tripwire for the solver's performance budget (see
// docs/PERFORMANCE.md).
//
// It reads `go test -json -bench` streams (the BENCH_*.json artifacts CI
// already uploads) or plain `go test -bench` text, extracts every
// "Benchmark... ns/op" line with its B/op and allocs/op when the bench
// reports memory (-benchmem or b.ReportAllocs), and keeps the minimum of
// each per benchmark name (the least-noisy statistic for a tripwire). The
// GOMAXPROCS suffix ("-4") is stripped so baselines survive runner
// core-count changes.
//
// Usage:
//
//	benchguard -baseline .github/bench_baseline.json BENCH_game.json BENCH_platform.json
//	benchguard -baseline .github/bench_baseline.json -update BENCH_game.json ...
//
// The baseline maps each benchmark name to its figures by unit, e.g.
// {"BenchmarkSolveFGTW200": {"B/op": 5.2e7, "allocs/op": 1200, "ns/op": 1.2e8}}.
// Every figure in the baseline is gated: a rise beyond -tolerance (default
// 0.15 = +15%) in ns/op, B/op or allocs/op is fatal, and a B/op or
// allocs/op baseline of 0 must stay 0 (an allocation-free path). An ns/op
// of 0, and a figure left out of a row (one that depends on the runner's
// core count, say), is not gated. A baselined benchmark with fewer than
// three result lines in the inputs fails (run it with -count 3), and
// -update refuses such inputs. A B/op or allocs/op figure more than
// -tolerance below its baseline passes with a note to re-take the row. A
// benchmark or figure present in the baseline but absent from the inputs
// is only a warning (CI shards benches across artifacts); new benchmarks
// are reported so the baseline can be refreshed with -update.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type event struct {
	Action string `json:"Action"`
	Test   string `json:"Test"`
	Output string `json:"Output"`
}

// benchLine matches a benchmark result line. The leading name is optional:
// test2json events carry the name in the Test field and often emit the
// result line as bare "       2\t  123 ns/op" output.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)?\s*\d+\s+([0-9.]+) ns/op`)

// benchName matches a benchmark name printed without its figures. With
// -count, test2json emits later runs' result lines as output events with no
// Test field, split into this name fragment and a bare figures line.
var benchName = regexp.MustCompile(`^Benchmark\S+$`)

// memFields match the -benchmem figures of a result line, by unit.
var memFields = map[string]*regexp.Regexp{
	"B/op":      regexp.MustCompile(`\s([0-9]+) B/op`),
	"allocs/op": regexp.MustCompile(`\s([0-9]+) allocs/op`),
}

// gatedUnits are the figures benchguard extracts and gates, in report order.
var gatedUnits = []string{"ns/op", "B/op", "allocs/op"}

// minSamples is the fewest result lines a benchmark needs before benchguard
// gates on it or writes it to a baseline: the minimum of one or two samples
// moves with host noise.
const minSamples = 3

// figures holds one benchmark's minimum value per unit.
type figures map[string]float64

func (f figures) keepMin(unit string, v float64) {
	if prev, ok := f[unit]; !ok || v < prev {
		f[unit] = v
	}
}

// procsSuffix is the GOMAXPROCS suffix go test appends to benchmark names.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// parse extracts benchmark name -> minimum figures from a test2json stream
// or plain benchmark text, and counts each benchmark's result lines in
// samples.
func parse(r io.Reader, into map[string]figures, samples map[string]int) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pending := "" // the last name fragment, for a following bare figures line
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		text, name := line, ""
		if line[0] == '{' {
			var ev event
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				return err
			}
			if ev.Action != "output" {
				continue
			}
			text = strings.TrimSpace(ev.Output)
			name = ev.Test
		}
		m := benchLine.FindStringSubmatch(text)
		if m == nil {
			if benchName.MatchString(text) {
				pending = text
			}
			continue
		}
		if m[1] != "" {
			name = m[1]
		} else if name == "" {
			name = pending
		}
		pending = ""
		if !strings.HasPrefix(name, "Benchmark") {
			continue
		}
		name = procsSuffix.ReplaceAllString(name, "")
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return fmt.Errorf("bad ns/op in %q: %w", text, err)
		}
		f := into[name]
		if f == nil {
			f = figures{}
			into[name] = f
		}
		samples[name]++
		f.keepMin("ns/op", ns)
		for _, unit := range gatedUnits[1:] {
			m := memFields[unit].FindStringSubmatch(text)
			if m == nil {
				continue
			}
			v, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				return fmt.Errorf("bad %s in %q: %w", unit, text, err)
			}
			f.keepMin(unit, v)
		}
	}
	return sc.Err()
}

// check compares current results against the baseline and returns the
// failure lines — regressions and baselined benchmarks with too few
// samples — and the informational lines.
func check(baseline, current map[string]figures, samples map[string]int, tolerance float64) (bad, info []string) {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cur, ok := current[name]
		if !ok {
			info = append(info, fmt.Sprintf("warn: %s in baseline but not in inputs", name))
			continue
		}
		if n := samples[name]; n < minSamples {
			bad = append(bad, tooFew(name, n))
		}
		for _, unit := range gatedUnits {
			base, ok := baseline[name][unit]
			if !ok || (base <= 0 && unit == "ns/op") {
				continue
			}
			v, ok := cur[unit]
			if !ok {
				info = append(info, fmt.Sprintf("warn: %s %s in baseline but not in inputs", name, unit))
				continue
			}
			switch {
			case base <= 0:
				if v > 0 {
					bad = append(bad, fmt.Sprintf("%s regressed: %.0f %s (baseline 0, which must stay 0)", name, v, unit))
				}
			case v/base-1 > tolerance:
				bad = append(bad, fmt.Sprintf("%s regressed %.1f%%: %.0f %s (baseline %.0f, tolerance %.0f%%)",
					name, (v/base-1)*100, v, unit, base, tolerance*100))
			case unit != "ns/op" && 1-v/base > tolerance:
				info = append(info, fmt.Sprintf("note: %s reads %.1f%% below its baseline: %.0f %s (baseline %.0f); re-take it",
					name, (1-v/base)*100, v, unit, base))
			}
		}
	}
	extra := make([]string, 0)
	for name := range current {
		if _, ok := baseline[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		info = append(info, fmt.Sprintf("note: %s not in baseline (run with -update to add)", name))
	}
	return bad, info
}

// tooFew is the failure line for a benchmark with only n samples.
func tooFew(name string, n int) string {
	return fmt.Sprintf("%s has %d samples, need at least %d (run it with -count %d)", name, n, minSamples, minSamples)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", ".github/bench_baseline.json", "committed baseline file")
	tolerance := fs.Float64("tolerance", 0.15, "fatal relative ns/op, B/op or allocs/op regression (0.15 = +15%)")
	update := fs.Bool("update", false, "rewrite the baseline from the inputs instead of checking")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "benchguard: no bench result files given")
		return 2
	}
	current := map[string]figures{}
	samples := map[string]int{}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchguard: %v\n", err)
			return 2
		}
		err = parse(f, current, samples)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "benchguard: %s: %v\n", path, err)
			return 2
		}
	}
	if len(current) == 0 {
		fmt.Fprintln(stderr, "benchguard: no benchmark results found in inputs")
		return 2
	}
	if *update {
		var few []string
		for name := range current {
			if n := samples[name]; n < minSamples {
				few = append(few, tooFew(name, n))
			}
		}
		if len(few) > 0 {
			sort.Strings(few)
			for _, line := range few {
				fmt.Fprintf(stderr, "benchguard: %s\n", line)
			}
			fmt.Fprintf(stderr, "benchguard: not writing %s\n", *baselinePath)
			return 2
		}
		buf, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "benchguard: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*baselinePath, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchguard: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "benchguard: wrote %d benchmarks to %s\n", len(current), *baselinePath)
		return 0
	}
	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchguard: %v (run with -update to create)\n", err)
		return 2
	}
	baseline := map[string]figures{}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		fmt.Fprintf(stderr, "benchguard: %s: %v\n", *baselinePath, err)
		return 2
	}
	bad, info := check(baseline, current, samples, *tolerance)
	for _, line := range info {
		fmt.Fprintln(stdout, line)
	}
	if len(bad) > 0 {
		for _, line := range bad {
			fmt.Fprintln(stderr, line)
		}
		return 1
	}
	fmt.Fprintf(stdout, "benchguard: %d benchmarks within %.0f%% of baseline\n",
		len(baseline), *tolerance*100)
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
