// Command servebench is the repository's end-to-end benchmark. It drives a
// real fta serve process, built from the same checkout, with one of three
// fixed-work workloads in a single-connection closed loop, checks every
// reply, and prints the end-to-end metrics; with -trace 1 it instead replays
// the workload in-process under a span tracer and attributes its latency to
// the layers. See README.md. Run it through run.sh, which builds both
// binaries:
//
//	bash servebench/run.sh --workload solve-w200 --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// config holds the command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	fta      string
	root     string
	logDir   string
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: solve-w200, solve-multicenter-audit or stream-reprice-expiry")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; any seed is accepted, so a claim can be re-checked on one nobody tuned against")
	flag.IntVar(&cfg.seconds, "seconds", 20, "nominal run length; the work per run is fixed and takes about this long on the reference machine")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced attribution run instead of the end-to-end run")
	flag.StringVar(&cfg.fta, "fta", "", "path of the fta binary built from the checkout")
	flag.StringVar(&cfg.root, "root", ".", "checkout root; counts and logs go under its .bench_build")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.fta == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need -fta, -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	w, err := findWorkload(cfg.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 2
	}
	build := filepath.Join(cfg.root, ".bench_build")
	cfg.logDir = filepath.Join(build, "logs")

	// The load generator is one single-threaded caller; in-process checks
	// and the traced replay raise GOMAXPROCS to the machine's while they run.
	runtime.GOMAXPROCS(1)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ss := &servers{}
	defer ss.stopAll()

	printStamp(cfg)
	in, err := makeInputs(w, cfg.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench: inputs:", err)
		return 1
	}
	var res *runResult
	if cfg.trace {
		res, err = runTraced(ctx, cfg, ss, w, in)
	} else {
		res, err = runEndToEnd(ctx, cfg, ss, w, in)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	if err := guardCounts(filepath.Join(build, "counts", fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed)), res.counts); err != nil {
		res.fail("%v", err)
	}
	return report(res)
}

// report prints the human-readable lines and, last, the JSON result line.
func report(res *runResult) int {
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "FAIL:", p)
	}
	fmt.Printf("requests attempted=%d succeeded=%d failed=%d\n", res.attempted, res.attempted-res.failed, res.failed)
	names := make([]string, 0, len(res.counts))
	for k := range res.counts {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("count %-28s %g\n", k, res.counts[k])
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		fmt.Printf("metric %-28s %12.4f %s\n", m.name, m.value, m.unit)
		metrics[m.name] = value{m.value, m.unit}
	}
	correct := len(res.problems) == 0 && res.failed == 0
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

// guardCounts fails when a deterministic count differs from the one the
// previous run of the same workload and seed recorded, then records the
// union of both.
func guardCounts(path string, counts map[string]float64) error {
	prev := map[string]float64{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("counts file %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	var diffs []string
	for k, v := range counts {
		if p, ok := prev[k]; ok && p != v {
			diffs = append(diffs, fmt.Sprintf("%s=%g (previous run %g)", k, v, p))
		}
		prev[k] = v
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("deterministic counts changed since the previous run: %s", strings.Join(diffs, ", "))
	}
	b, err := json.Marshal(prev)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printStamp prints the environment a run's numbers belong to.
func printStamp(cfg config) {
	serverProcs := os.Getenv("GOMAXPROCS")
	if serverProcs == "" {
		serverProcs = fmt.Sprint(runtime.NumCPU())
	}
	fmt.Printf("env workload=%s seed=%d server_gomaxprocs=%s generator_gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s source=%s\n",
		cfg.workload, cfg.seed, serverProcs, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(),
		runtime.Version(), envOr("SERVEBENCH_COMMIT", "unknown"), sourceDigest(cfg.root))
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the checkout's Go sources and module files, naming
// the code under test where the checkout carries no commit.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
