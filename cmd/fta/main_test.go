package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"fairtask"
	"fairtask/internal/vdps"
)

// capture runs fn with os.Stdout redirected to a pipe and returns what it
// printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	r.Close()
	return string(buf[:n]), runErr
}

func TestRunNoArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing subcommand accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help failed: %v", err)
	}
}

func TestGenAssignSimPipeline(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "p.csv")

	if err := run([]string{"gen", "-dataset", "syn", "-seed", "3",
		"-centers", "2", "-tasks", "60", "-workers", "8", "-points", "16",
		"-out", csv}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if _, err := os.Stat(csv); err != nil {
		t.Fatalf("gen wrote nothing: %v", err)
	}

	out, err := capture(t, func() error {
		return run([]string{"assign", "-in", csv, "-alg", "IEGT", "-eps", "2"})
	})
	if err != nil {
		t.Fatalf("assign: %v", err)
	}
	for _, want := range []string{"IEGT", "payoff difference", "average payoff"} {
		if !strings.Contains(out, want) {
			t.Errorf("assign output missing %q in:\n%s", want, out)
		}
	}

	out, err = capture(t, func() error {
		return run([]string{"sim", "-in", csv, "-alg", "GTA", "-epochs", "2"})
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	for _, want := range []string{"epoch", "cumulative P_dif", "total completed"} {
		if !strings.Contains(out, want) {
			t.Errorf("sim output missing %q in:\n%s", want, out)
		}
	}
}

func TestGenGMToStdout(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"gen", "-dataset", "gm", "-tasks", "30",
			"-workers", "4", "-points", "10"})
	})
	if err != nil {
		t.Fatalf("gen gm: %v", err)
	}
	if !strings.Contains(out, "meta,") || !strings.Contains(out, "center,") {
		t.Errorf("CSV header records missing:\n%.200s", out)
	}
}

func TestGenUnknownDataset(t *testing.T) {
	if err := run([]string{"gen", "-dataset", "nope"}); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestAssignRequiresInput(t *testing.T) {
	if err := run([]string{"assign"}); err == nil {
		t.Error("assign without -in accepted")
	}
	if err := run([]string{"assign", "-in", "/nonexistent/x.csv"}); err == nil {
		t.Error("assign with missing file accepted")
	}
}

func TestAssignUnknownAlgorithm(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "p.csv")
	if err := run([]string{"gen", "-dataset", "gm", "-tasks", "20",
		"-workers", "3", "-points", "6", "-out", csv}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"assign", "-in", csv, "-alg", "XXX"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestSweepListsFigures(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"sweep"})
	})
	if err != nil {
		t.Fatalf("sweep list: %v", err)
	}
	for _, want := range []string{"fig2", "fig12"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure list missing %q", want)
		}
	}
}

func TestSweepRunsTinyFigure(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"sweep", "-fig", "fig12", "-scale", "100", "-gmscale", "5"})
	})
	if err != nil {
		t.Fatalf("sweep fig12: %v", err)
	}
	if !strings.Contains(out, "Convergence") || !strings.Contains(out, "FGT") {
		t.Errorf("sweep output unexpected:\n%s", out)
	}
}

func TestSweepUnknownFigure(t *testing.T) {
	if err := run([]string{"sweep", "-fig", "fig99"}); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestAssignRoutesExport(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "p.csv")
	routes := filepath.Join(dir, "routes.csv")
	if err := run([]string{"gen", "-dataset", "gm", "-tasks", "40",
		"-workers", "5", "-points", "10", "-out", csv}); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, func() error {
		return run([]string{"assign", "-in", csv, "-alg", "GTA", "-routes", routes})
	}); err != nil {
		t.Fatalf("assign -routes: %v", err)
	}
	data, err := os.ReadFile(routes)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "center,worker,stop,point") {
		t.Errorf("routes CSV malformed:\n%.120s", data)
	}
}

func TestReport(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "p.csv")
	if err := run([]string{"gen", "-dataset", "syn", "-centers", "2",
		"-tasks", "40", "-workers", "8", "-points", "12", "-out", csv}); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run([]string{"report", "-in", csv, "-alg", "MMTA"})
	})
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	for _, want := range []string{"Gini", "Jain", "minimum payoff", "center"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestSweepTable1(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"sweep", "-table1"})
	})
	if err != nil {
		t.Fatalf("sweep -table1: %v", err)
	}
	if !strings.Contains(out, "epsilon") || !strings.Contains(out, "maxDP") {
		t.Errorf("table1 output unexpected:\n%s", out)
	}
}

func TestSweepRepeated(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"sweep", "-fig", "fig12", "-scale", "100",
			"-gmscale", "5", "-reps", "2"})
	})
	if err != nil {
		t.Fatalf("sweep -reps: %v", err)
	}
	if !strings.Contains(out, "mean of 2 runs") {
		t.Errorf("repeated sweep output unexpected:\n%s", out)
	}
}

func TestOnline(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"online", "-workers", "4", "-tasks", "40"})
	})
	if err != nil {
		t.Fatalf("online: %v", err)
	}
	for _, want := range []string{"greedy", "fair-first", "rate spread"} {
		if !strings.Contains(out, want) {
			t.Errorf("online output missing %q:\n%s", want, out)
		}
	}
	if err := run([]string{"online", "-rate", "0"}); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestRender(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "p.csv")
	svg := filepath.Join(dir, "map.svg")
	if err := run([]string{"gen", "-dataset", "gm", "-tasks", "30",
		"-workers", "4", "-points", "8", "-out", csv}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"render", "-in", csv, "-alg", "GTA", "-out", svg, "-labels"}); err != nil {
		t.Fatalf("render: %v", err)
	}
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Errorf("not an SVG:\n%.80s", data)
	}
	if err := run([]string{"render", "-in", csv, "-center", "99"}); err == nil {
		t.Error("missing center accepted")
	}
}

func TestSweepCSVExport(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "series.csv")
	if _, err := capture(t, func() error {
		return run([]string{"sweep", "-fig", "fig12", "-scale", "100",
			"-gmscale", "5", "-csv", csvPath})
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "figure,x,algorithm") {
		t.Errorf("series CSV malformed:\n%.100s", data)
	}
}

func TestSimArrivalsAndJSON(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "p.csv")
	jsonPath := filepath.Join(dir, "report.json")
	if err := run([]string{"gen", "-dataset", "syn", "-centers", "1",
		"-tasks", "20", "-workers", "4", "-points", "8", "-out", csv}); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, func() error {
		return run([]string{"sim", "-in", csv, "-alg", "GTA", "-epochs", "3",
			"-arrivals", "1", "-rush", "-json", jsonPath})
	}); err != nil {
		t.Fatalf("sim with arrivals: %v", err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := jsonUnmarshal(data, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if _, ok := rep["Epochs"]; !ok {
		t.Error("JSON report missing Epochs")
	}
}

func jsonUnmarshal(data []byte, v any) error {
	return json.Unmarshal(data, v)
}

func TestServeHandler(t *testing.T) {
	srv := httptest.NewServer(newServerHandler(nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}

	// Round-trip a real problem through the HTTP API with FGT.
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "p.csv")
	if err := run([]string{"gen", "-dataset", "gm", "-tasks", "30",
		"-workers", "4", "-points", "8", "-out", csvPath}); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/solve?alg=FGT&seed=2", "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["algorithm"] != "FGT" {
		t.Errorf("algorithm = %v", out["algorithm"])
	}

	// The serve handler wires a MetricsRecorder: the scrape must show both
	// the HTTP request just made and the solver-side counters it drove.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	metrics, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(metrics)
	for _, want := range []string{
		`fta_http_requests_total{code="2xx",route="/solve"} 1`,
		"fta_vdps_candidates_total",
		"fta_solve_iterations_count 1",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("metrics missing %q in:\n%s", want, exposition)
		}
	}
}

// TestServeTelemetryValues pins the values of the served solver telemetry,
// not just its presence: after one FGT and one IEGT /solve, each
// algorithm's strategy-switch counter equals the summed per-round changes
// of the same solves traced in-process, and the VDPS counters equal the
// generators' own statistics.
func TestServeTelemetryValues(t *testing.T) {
	srv := httptest.NewServer(newServerHandler(nil))
	defer srv.Close()

	csvPath := filepath.Join(t.TempDir(), "p.csv")
	if err := run([]string{"gen", "-dataset", "syn", "-seed", "2", "-centers", "2",
		"-tasks", "60", "-workers", "12", "-points", "20", "-out", csvPath}); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := fairtask.ReadCSV(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}

	const seed, eps = 2, 2.0
	var want []string
	var stats vdps.Stats
	for _, alg := range []fairtask.Algorithm{fairtask.AlgFGT, fairtask.AlgIEGT} {
		url := fmt.Sprintf("%s/solve?alg=%s&seed=%d&eps=%g", srv.URL, alg, seed, eps)
		resp, err := http.Post(url, "text/csv", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s solve status = %d", alg, resp.StatusCode)
		}
		changes := 0
		for i := range prob.Instances {
			in := &prob.Instances[i]
			if len(in.Workers) == 0 {
				continue
			}
			res, err := fairtask.Solve(in, fairtask.Options{
				Algorithm: alg, Seed: seed, VDPS: fairtask.VDPSOptions{Epsilon: eps}, Trace: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range res.Trace {
				changes += st.Changes
			}
			g, err := vdps.Generate(in, vdps.Options{Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			st := g.Stats()
			stats.SubsetsExplored += st.SubsetsExplored
			stats.ExtensionsPruned += st.ExtensionsPruned
			stats.Candidates += st.Candidates
		}
		if changes == 0 {
			t.Fatalf("%s made no strategy switches: the counter check would be vacuous", alg)
		}
		want = append(want, `fta_solve_strategy_changes_total{algorithm="`+string(alg)+`"} `+strconv.Itoa(changes))
	}
	want = append(want,
		"fta_vdps_subsets_total "+strconv.Itoa(stats.SubsetsExplored),
		"fta_vdps_pruned_total "+strconv.Itoa(stats.ExtensionsPruned),
		"fta_vdps_candidates_total "+strconv.Itoa(stats.Candidates))

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range want {
		if !strings.Contains(string(metrics), line+"\n") {
			t.Errorf("metrics missing %q", line)
		}
	}
}

// TestServeBaselinesObserveNoPotential pins that only FGT and IEGT feed
// the potential histogram, the strategy-switch counter and the game-round
// histogram: after one /solve each on a 2-center SYN problem, every other
// servable algorithm has one payoff observation per center but no potential
// observation, no switch and no iteration observation. GTA, MPTA, MMTA and
// LEXIFAIR all report a positive iteration count, so a gate on iterations
// would let their zero potential in.
func TestServeBaselinesObserveNoPotential(t *testing.T) {
	srv := httptest.NewServer(newServerHandler(nil))
	defer srv.Close()

	csvPath := filepath.Join(t.TempDir(), "p.csv")
	if err := run([]string{"gen", "-dataset", "syn", "-seed", "2", "-centers", "2",
		"-tasks", "60", "-workers", "12", "-points", "20", "-out", csvPath}); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	var baselines []fairtask.Algorithm
	for _, alg := range fairtask.ExtendedAlgorithms() {
		if alg == fairtask.AlgFGT || alg == fairtask.AlgIEGT {
			continue
		}
		baselines = append(baselines, alg)
		resp, err := http.Post(srv.URL+"/solve?alg="+string(alg)+"&seed=2&eps=2", "text/csv", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s solve status = %d", alg, resp.StatusCode)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range baselines {
		for _, line := range []string{
			`fta_solve_payoff_difference_count{algorithm="` + string(alg) + `"} 2`,
			`fta_solve_potential_count{algorithm="` + string(alg) + `"} 0`,
			`fta_solve_strategy_changes_total{algorithm="` + string(alg) + `"} 0`,
		} {
			if !strings.Contains(string(metrics), line+"\n") {
				t.Errorf("metrics missing %q", line)
			}
		}
	}
	if line := "fta_solve_iterations_count 0"; !strings.Contains(string(metrics), line+"\n") {
		t.Errorf("metrics missing %q", line)
	}
}

func TestAssignTraceOut(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "p.csv")
	trace := filepath.Join(dir, "trace.jsonl")
	if err := run([]string{"gen", "-dataset", "syn", "-centers", "2",
		"-tasks", "40", "-workers", "8", "-points", "12", "-out", csv}); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, func() error {
		return run([]string{"assign", "-in", csv, "-alg", "FGT", "-eps", "2",
			"-trace-out", trace})
	}); err != nil {
		t.Fatalf("assign -trace-out: %v", err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 {
		t.Fatal("trace file is empty")
	}
	centers := map[float64]bool{}
	lastIter := map[float64]float64{}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line %q is not JSON: %v", line, err)
		}
		for _, key := range []string{"center", "algorithm", "iteration", "changes", "payoff_diff", "avg_payoff"} {
			if _, ok := rec[key]; !ok {
				t.Fatalf("trace line missing %q: %s", key, line)
			}
		}
		if rec["algorithm"] != "FGT" {
			t.Errorf("trace algorithm = %v", rec["algorithm"])
		}
		c := rec["center"].(float64)
		centers[c] = true
		// Iterations must be 1-based and increasing per center.
		it := rec["iteration"].(float64)
		if it != lastIter[c]+1 {
			t.Errorf("center %v iteration jumped from %v to %v", c, lastIter[c], it)
		}
		lastIter[c] = it
	}
	if len(centers) != 2 {
		t.Errorf("trace covers %d centers, want 2", len(centers))
	}
}

func TestGenGMissionRawFiles(t *testing.T) {
	dir := t.TempDir()
	tasks := filepath.Join(dir, "tasks.csv")
	workers := filepath.Join(dir, "workers.csv")
	out := filepath.Join(dir, "p.csv")
	if err := os.WriteFile(tasks, []byte(
		"0,0.1,0.1,2,1\n1,0.2,0.1,2,1\n2,2.0,2.1,2,1\n3,2.1,2.0,2,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(workers, []byte("0,1,1,3\n1,0.5,0.5,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"gen", "-dataset", "gmission",
		"-gmission-tasks", tasks, "-gmission-workers", workers,
		"-points", "2", "-out", out}); err != nil {
		t.Fatalf("gen gmission: %v", err)
	}
	if _, err := capture(t, func() error {
		return run([]string{"assign", "-in", out, "-alg", "GTA"})
	}); err != nil {
		t.Fatalf("assign on loaded gmission: %v", err)
	}
	if err := run([]string{"gen", "-dataset", "gmission"}); err == nil {
		t.Error("missing raw file flags accepted")
	}
}

func TestAuditRoundTrip(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "p.csv")
	routes := filepath.Join(dir, "routes.csv")
	if err := run([]string{"gen", "-dataset", "syn", "-seed", "11",
		"-centers", "2", "-tasks", "40", "-workers", "6", "-points", "12",
		"-out", csv}); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, func() error {
		return run([]string{"assign", "-in", csv, "-alg", "FGT", "-routes", routes})
	}); err != nil {
		t.Fatalf("assign -routes: %v", err)
	}

	out, err := capture(t, func() error {
		return run([]string{"audit", "-in", csv, "-routes", routes, "-alg", "FGT"})
	})
	if err != nil {
		t.Fatalf("audit rejected a clean export: %v\n%s", err, out)
	}
	for _, want := range []string{"center", "result", "audit passed: 2 center(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("audit output missing %q in:\n%s", want, out)
		}
	}
	// An unknown algorithm has no certificate to skip: it is an error.
	if _, err := capture(t, func() error {
		return run([]string{"audit", "-in", csv, "-routes", routes, "-alg", "XXX"})
	}); err == nil {
		t.Error("audit accepted an unknown algorithm")
	}

	// Corrupt the export: point the first route row at a different delivery
	// point, producing either an overlap, a deadline miss or a non-member
	// route — any of which must fail the audit with a non-zero exit.
	data, err := os.ReadFile(routes)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	if len(lines) < 3 {
		t.Fatalf("route export too small to corrupt:\n%s", data)
	}
	f1 := strings.Split(lines[1], ",")
	f2 := strings.Split(lines[2], ",")
	f1[3] = f2[3] // duplicate another row's point ID
	lines[1] = strings.Join(f1, ",")
	if err := os.WriteFile(routes, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = capture(t, func() error {
		return run([]string{"audit", "-in", csv, "-routes", routes})
	})
	if err == nil {
		t.Fatalf("audit accepted a corrupted export:\n%s", out)
	}
	if !strings.Contains(out, "violation") {
		t.Errorf("audit output does not mention violations:\n%s", out)
	}
}

func TestAuditRequiresRoutes(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "p.csv")
	if err := run([]string{"gen", "-dataset", "gm", "-tasks", "20",
		"-workers", "4", "-points", "8", "-out", csv}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"audit", "-in", csv}); err == nil {
		t.Error("audit without -routes accepted")
	}
}

// The full LEXIFAIR pipeline: assign with route export, then audit the
// exported routes under the leximin certificate.
func TestLexifairAssignAndAuditPipeline(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "p.csv")
	routes := filepath.Join(dir, "routes.csv")
	if err := run([]string{"gen", "-dataset", "syn", "-seed", "5", "-centers", "2",
		"-tasks", "40", "-workers", "6", "-points", "10", "-out", csv}); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run([]string{"assign", "-in", csv, "-alg", "LEXIFAIR", "-routes", routes})
	})
	if err != nil {
		t.Fatalf("assign -alg LEXIFAIR: %v", err)
	}
	if !strings.Contains(out, "LEXIFAIR") {
		t.Errorf("assign output does not name the algorithm:\n%s", out)
	}
	if _, err := os.Stat(routes); err != nil {
		t.Fatalf("assign wrote no routes: %v", err)
	}
	audit, err := capture(t, func() error {
		return run([]string{"audit", "-in", csv, "-routes", routes, "-alg", "LEXIFAIR"})
	})
	if err != nil {
		t.Fatalf("audit of LEXIFAIR routes failed: %v\n%s", err, audit)
	}
	// The leximin certificate must actually gate: an all-null route set
	// (header-only CSV) cannot be leximin-optimal here and must fail.
	emptyRoutes := filepath.Join(dir, "empty.csv")
	if err := os.WriteFile(emptyRoutes,
		[]byte("center,worker,stop,point,arrival,reward,payoff\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = capture(t, func() error {
		return run([]string{"audit", "-in", csv, "-routes", emptyRoutes, "-alg", "LEXIFAIR"})
	})
	if err == nil {
		t.Fatalf("empty assignment passed the LEXIFAIR audit:\n%s", out)
	}
	if !strings.Contains(out+err.Error(), "lexifair") {
		t.Errorf("audit rejection does not mention the lexifair check: %v\n%s", err, out)
	}
}
