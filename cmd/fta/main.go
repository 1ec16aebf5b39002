// Command fta is the command-line front end of the fairtask library.
//
// Subcommands:
//
//	fta gen   -dataset syn|gm -out problem.csv [size flags]
//	fta assign -in problem.csv -alg MPTA|GTA|FGT|IEGT|MMTA|LEXIFAIR [-eps km] [-seed n]
//	          [-trace-out trace.jsonl]
//	fta sweep -fig fig2..fig12 [-scale n] [-gmscale n] [-seed n]
//	fta sim   -in problem.csv -alg IEGT -epochs n [-dt hours]
//	fta report -in problem.csv -alg FGT [-eps km]
//	fta audit -in problem.csv -routes routes.csv [-alg FGT] [-eps km]
//	fta serve [-addr host:port] [-pprof] [-log-format text|json] [-log-level info]
//	          [-job-workers n] [-queue-depth n] [-job-ttl 15m] [-solve-timeout 0]
//	          [-drain-timeout 30s]
//
// "fta sweep" regenerates the series behind every figure of the paper's
// evaluation section; see EXPERIMENTS.md for the mapping.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

	"fairtask"
	"fairtask/internal/experiment"
	"fairtask/internal/fault"
	"fairtask/internal/jobs"
	"fairtask/internal/obs"
	"fairtask/internal/platform"
	"fairtask/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fta:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "gen":
		return cmdGen(args[1:])
	case "assign":
		return cmdAssign(args[1:])
	case "sweep":
		return cmdSweep(args[1:])
	case "sim":
		return cmdSim(args[1:])
	case "report":
		return cmdReport(args[1:])
	case "audit":
		return cmdAudit(args[1:])
	case "online":
		return cmdOnline(args[1:])
	case "stream":
		return cmdStream(args[1:])
	case "render":
		return cmdRender(args[1:])
	case "trace":
		return cmdTrace(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fta <subcommand> [flags]

subcommands:
  gen     generate a SYN or GM dataset as CSV
  assign  solve a dataset with one algorithm and print metrics
  sweep   regenerate a paper figure's series (fig2..fig12)
  sim     run the epoch-based platform simulation
  report  solve a dataset and print a full fairness report
  audit   re-verify a saved route CSV against its dataset
  online  replay a random task stream through the online matcher
  stream  drive the incremental equilibrium engine with a delta stream
  render  draw one center's assignment as an SVG map
  trace   analyze a span file written by assign -span-out
  serve   run the assignment engine as an HTTP service

run "fta <subcommand> -h" for flags.`)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	var (
		kind    = fs.String("dataset", "syn", "dataset kind: syn, gm, or gmission (raw files)")
		out     = fs.String("out", "", "output CSV path (default stdout)")
		seed    = fs.Int64("seed", 1, "random seed")
		centers = fs.Int("centers", 0, "SYN: number of distribution centers")
		tasks   = fs.Int("tasks", 0, "number of tasks |S|")
		workers = fs.Int("workers", 0, "number of workers |W|")
		points  = fs.Int("points", 0, "number of delivery points |DP|")
		expiry  = fs.Float64("expiry", 0, "SYN: task expiry e in hours")
		maxDP   = fs.Int("maxdp", 0, "worker maxDP (SYN)")
		gmTasks = fs.String("gmission-tasks", "", "gmission: raw task CSV (id,x,y,expiry,reward)")
		gmWork  = fs.String("gmission-workers", "", "gmission: raw worker CSV (id,x,y,maxdp)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var prob *fairtask.Problem
	switch *kind {
	case "syn":
		p, err := fairtask.GenerateSYN(fairtask.SYNConfig{
			Seed: *seed, Centers: *centers, Tasks: *tasks, Workers: *workers,
			DeliveryPoints: *points, Expiry: *expiry, MaxDP: *maxDP,
		})
		if err != nil {
			return err
		}
		prob = p
	case "gm":
		in, err := fairtask.GenerateGM(fairtask.GMConfig{
			Seed: *seed, Tasks: *tasks, Workers: *workers, DeliveryPoints: *points,
		})
		if err != nil {
			return err
		}
		prob = &fairtask.Problem{Instances: []fairtask.Instance{*in}}
	case "gmission":
		if *gmTasks == "" || *gmWork == "" {
			return fmt.Errorf("gmission requires -gmission-tasks and -gmission-workers")
		}
		tf, err := os.Open(*gmTasks)
		if err != nil {
			return err
		}
		defer tf.Close()
		wf, err := os.Open(*gmWork)
		if err != nil {
			return err
		}
		defer wf.Close()
		in, err := fairtask.LoadGMission(tf, wf, fairtask.GMissionOptions{
			DeliveryPoints: *points, Seed: *seed,
		})
		if err != nil {
			return err
		}
		prob = &fairtask.Problem{Instances: []fairtask.Instance{*in}}
	default:
		return fmt.Errorf("unknown dataset %q (want syn, gm or gmission)", *kind)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := fairtask.WriteCSV(w, prob); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %d centers, %d points, %d tasks, %d workers\n",
		len(prob.Instances), countPoints(prob), prob.TaskCount(), prob.WorkerCount())
	return nil
}

func countPoints(p *fairtask.Problem) int {
	var n int
	for i := range p.Instances {
		n += len(p.Instances[i].Points)
	}
	return n
}

func loadProblem(path string) (*fairtask.Problem, error) {
	if path == "" {
		return nil, fmt.Errorf("-in is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return fairtask.ReadCSV(f)
}

func cmdAssign(args []string) error {
	fs := flag.NewFlagSet("assign", flag.ContinueOnError)
	var (
		in        = fs.String("in", "", "input problem CSV")
		alg       = fs.String("alg", "FGT", "algorithm: MPTA, GTA, FGT, IEGT, MMTA or LEXIFAIR")
		eps       = fs.Float64("eps", 0, "pruning threshold epsilon in km (0 = no pruning)")
		seed      = fs.Int64("seed", 1, "random seed for FGT/IEGT")
		routes    = fs.String("routes", "", "optional path for a per-stop route CSV export")
		traceOut  = fs.String("trace-out", "", "write the per-iteration convergence trace as JSONL (FGT/IEGT)")
		spanOut   = fs.String("span-out", "", "write a span timeline as Chrome trace_event JSON (Perfetto-loadable; analyze with fta trace)")
		degrade   = fs.Bool("degrade", false, "fall back exact→sampled→greedy when a solve stage fails or exceeds its budget")
		degradeTO = fs.Duration("degrade-budget", 10*time.Second, "per-rung wall-clock budget for -degrade")
		retryMax  = fs.Int("retry-max", 0, "retry failed per-center solves up to this many total attempts (0 = no retry)")
		failSpecs = fs.String("fail", "", "arm chaos failpoints, e.g. 'vdps.generate:err:3' (dev only; see docs/RESILIENCE.md)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	prob, err := loadProblem(*in)
	if err != nil {
		return err
	}
	opt := fairtask.Options{
		Algorithm: fairtask.Algorithm(*alg),
		Seed:      *seed,
		Trace:     *traceOut != "",
	}
	if *eps > 0 {
		opt.VDPS.Epsilon = *eps
	} else {
		opt.VDPS.Epsilon = math.Inf(1)
	}
	if *degrade {
		opt.Degrade = &fairtask.DegradeOptions{
			ExactBudget:   *degradeTO,
			SampledBudget: *degradeTO,
		}
	}
	if *retryMax > 1 {
		opt.Retry = &fairtask.RetryPolicy{MaxAttempts: *retryMax}
	}
	if *failSpecs != "" {
		if err := fault.ArmSpecs(*failSpecs); err != nil {
			return err
		}
		// Count-based failpoint triggering across concurrent center solves
		// follows the goroutine schedule; chaos runs promise bit-identical
		// output across invocations, so they solve centers sequentially.
		opt.Parallelism = 1
	}
	ctx := context.Background()
	var tracer *fairtask.Tracer
	var rootSp *fairtask.Span
	if *spanOut != "" {
		tracer = fairtask.NewTracer()
		rootSp = tracer.Root("fta assign")
		rootSp.SetAttr("algorithm", *alg)
		rootSp.SetAttrInt("centers", len(prob.Instances))
		ctx = fairtask.ContextWithSpan(ctx, rootSp)
	}
	res, err := fairtask.SolveProblemContext(ctx, prob, opt)
	if err != nil {
		return err
	}
	if tracer != nil {
		rootSp.End()
		if err := writeSpanFile(*spanOut, tracer.Collect("fta assign")); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		if err := writeTraceJSONL(*traceOut, *alg, prob, res); err != nil {
			return err
		}
	}
	if *routes != "" {
		assignments := make([]*fairtask.Assignment, len(res.PerCenter))
		for i, r := range res.PerCenter {
			assignments[i] = r.Assignment
		}
		f, err := os.Create(*routes)
		if err != nil {
			return err
		}
		if err := fairtask.WriteAssignmentCSV(f, prob, assignments); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "algorithm\t%s\n", *alg)
	fmt.Fprintf(tw, "workers\t%d\n", len(res.Payoffs))
	fmt.Fprintf(tw, "payoff difference\t%.4f\n", res.Difference)
	fmt.Fprintf(tw, "average payoff\t%.4f\n", res.Average)
	if res.Degraded != "" {
		fmt.Fprintf(tw, "degraded\t%s\n", res.Degraded)
	}
	fmt.Fprintf(tw, "cpu time\t%s\n", res.Elapsed)
	return tw.Flush()
}

// writeTraceJSONL exports every center's per-iteration convergence trace as
// JSON Lines: one IterationStat per line, tagged with the center ID and
// algorithm, ready for Figure-12-style convergence plots. Baselines without
// iterative dynamics (GTA, MPTA, MMTA) produce an empty file.
func writeTraceJSONL(path, alg string, prob *fairtask.Problem, res *fairtask.ProblemResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, r := range res.PerCenter {
		for _, st := range r.Trace {
			line := struct {
				Center    int    `json:"center"`
				Algorithm string `json:"algorithm"`
				fairtask.IterationStat
			}{prob.Instances[i].CenterID, alg, st}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		fig     = fs.String("fig", "", "figure to regenerate (fig2..fig12); empty lists figures")
		scale   = fs.Int("scale", 10, "SYN downscale factor (1 = paper scale)")
		gmscale = fs.Int("gmscale", 1, "GM downscale factor")
		seed    = fs.Int64("seed", 1, "random seed")
		budget  = fs.Int("mpta-budget", 0, "MPTA node budget (0 = sweep default)")
		table1  = fs.Bool("table1", false, "print the Table I parameter registry and exit")
		reps    = fs.Int("reps", 1, "repetitions with consecutive seeds; >1 reports mean and std")
		csvOut  = fs.String("csv", "", "also write the raw series as CSV to this path (single run only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *table1 {
		return experiment.WriteTableI(os.Stdout)
	}
	if *fig == "" {
		fmt.Println("available figures:")
		for _, n := range experiment.Names() {
			fmt.Println(" ", n)
		}
		return nil
	}
	cfg := experiment.Config{
		Seed: *seed, SYNScale: *scale, GMScale: *gmscale, MPTANodeBudget: *budget,
	}
	if *reps > 1 {
		agg, err := experiment.RunRepeated(*fig, cfg, *reps)
		if err != nil {
			return err
		}
		return agg.WriteTables(os.Stdout)
	}
	s, err := experiment.Run(*fig, cfg)
	if err != nil {
		return err
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			return err
		}
		if err := s.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return s.WriteTables(os.Stdout)
}

func cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	var (
		in       = fs.String("in", "", "input problem CSV")
		alg      = fs.String("alg", "IEGT", "algorithm: MPTA, GTA, FGT, IEGT, MMTA or LEXIFAIR")
		epochs   = fs.Int("epochs", 12, "number of assignment rounds")
		dt       = fs.Float64("dt", 1, "epoch length in hours")
		eps      = fs.Float64("eps", 0, "pruning threshold epsilon in km (0 = no pruning)")
		seed     = fs.Int64("seed", 1, "random seed for FGT/IEGT")
		arrivals = fs.Float64("arrivals", 0, "Poisson task arrivals per point per epoch (0 = none)")
		rush     = fs.Bool("rush", false, "modulate arrivals with the bimodal rush-hour profile")
		jsonOut  = fs.String("json", "", "also write the full report as JSON to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	prob, err := loadProblem(*in)
	if err != nil {
		return err
	}
	solver, err := fairtask.NewAssigner(fairtask.Options{
		Algorithm: fairtask.Algorithm(*alg), Seed: *seed,
	})
	if err != nil {
		return err
	}
	cfg := fairtask.SimConfig{Epochs: *epochs, EpochLength: *dt, Solver: solver}
	if *eps > 0 {
		cfg.VDPS.Epsilon = *eps
	}
	if *arrivals > 0 {
		ac := fairtask.ArrivalConfig{Seed: *seed, RatePerPoint: *arrivals}
		if *rush {
			ac.RateProfile = fairtask.RushHourProfile
		}
		cfg.TaskSource = fairtask.NewPoissonArrivals(ac)
	}
	rep, err := fairtask.Simulate(prob, cfg)
	if err != nil {
		return err
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "epoch\tonline\tassigned\tcompleted\texpired\tP_dif\tavg payoff")
	for _, e := range rep.Epochs {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%.4f\t%.4f\n",
			e.Epoch, e.OnlineWorkers, e.AssignedWorkers, e.CompletedTasks,
			e.ExpiredTasks, e.Difference, e.Average)
	}
	fmt.Fprintf(tw, "\ntotal completed\t%d\n", rep.CompletedTasks)
	fmt.Fprintf(tw, "total expired\t%d\n", rep.ExpiredTasks)
	fmt.Fprintf(tw, "cumulative P_dif\t%.4f\n", rep.CumulativeDifference)
	fmt.Fprintf(tw, "cumulative avg rate\t%.4f\n", rep.CumulativeAverage)
	return tw.Flush()
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	var (
		in   = fs.String("in", "", "input problem CSV")
		alg  = fs.String("alg", "FGT", "algorithm: MPTA, GTA, FGT, IEGT, MMTA or LEXIFAIR")
		eps  = fs.Float64("eps", 0, "pruning threshold epsilon in km (0 = no pruning)")
		seed = fs.Int64("seed", 1, "random seed for FGT/IEGT")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	prob, err := loadProblem(*in)
	if err != nil {
		return err
	}
	opt := fairtask.Options{Algorithm: fairtask.Algorithm(*alg), Seed: *seed}
	if *eps > 0 {
		opt.VDPS.Epsilon = *eps
	} else {
		opt.VDPS.Epsilon = math.Inf(1)
	}
	res, err := fairtask.SolveProblem(prob, opt)
	if err != nil {
		return err
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "algorithm\t%s\n", *alg)
	fmt.Fprintf(tw, "workers\t%d\n", len(res.Payoffs))
	fmt.Fprintf(tw, "payoff difference (P_dif)\t%.4f\n", res.Difference)
	fmt.Fprintf(tw, "average payoff\t%.4f\n", res.Average)
	fmt.Fprintf(tw, "minimum payoff\t%.4f\n", fairtask.MinPayoff(res.Payoffs))
	fmt.Fprintf(tw, "Gini coefficient\t%.4f\n", fairtask.Gini(res.Payoffs))
	fmt.Fprintf(tw, "Jain index\t%.4f\n", fairtask.JainIndex(res.Payoffs))
	fmt.Fprintf(tw, "payoff quartiles (p25/p50/p75)\t%.4f / %.4f / %.4f\n",
		fairtask.PayoffQuantile(res.Payoffs, 0.25),
		fairtask.PayoffQuantile(res.Payoffs, 0.5),
		fairtask.PayoffQuantile(res.Payoffs, 0.75))
	fmt.Fprintf(tw, "cpu time\t%s\n", res.Elapsed)
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "center\tworkers\tassigned\tP_dif\tavg payoff")
	for i, r := range res.PerCenter {
		s := r.Summary
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.4f\t%.4f\n",
			prob.Instances[i].CenterID, len(s.Payoffs), s.Assigned, s.Difference, s.Average)
	}
	return tw.Flush()
}

// cmdAudit re-verifies a persisted assignment (an "fta assign -routes"
// export) against its dataset: route structure, deadlines, recomputed
// payoffs, VDPS membership, and — when -alg names a certified algorithm —
// that algorithm's certificate at its default options. An unknown -alg is
// an error. It exits non-zero on any violation, so it can gate a dispatch
// pipeline.
func cmdAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	var (
		in     = fs.String("in", "", "input problem CSV")
		routes = fs.String("routes", "", "route CSV written by \"fta assign -routes\"")
		alg    = fs.String("alg", "", "algorithm that produced the routes (MPTA, GTA, FGT, IEGT, MMTA or LEXIFAIR); FGT or IEGT enables the equilibrium check, LEXIFAIR the leximin check")
		eps    = fs.Float64("eps", 0, "pruning threshold epsilon in km used for the solve (0 = no pruning)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	prob, err := loadProblem(*in)
	if err != nil {
		return err
	}
	if *routes == "" {
		return fmt.Errorf("-routes is required")
	}
	f, err := os.Open(*routes)
	if err != nil {
		return err
	}
	assignments, err := fairtask.ReadAssignmentCSV(f, prob)
	f.Close()
	if err != nil {
		return err
	}

	var opt fairtask.AuditOptions
	if *alg != "" {
		if opt.Solver, err = fairtask.NewAssigner(fairtask.Options{Algorithm: fairtask.Algorithm(*alg)}); err != nil {
			return err
		}
		opt.Converged = true
	}
	if *eps > 0 {
		opt.VDPS.Epsilon = *eps
	} else {
		opt.VDPS.Epsilon = math.Inf(1)
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "center\tworkers\tassigned\tP_dif\tavg payoff\tresult")
	var bad int
	var reports []*fairtask.AuditReport
	for i := range prob.Instances {
		inst := &prob.Instances[i]
		rep := fairtask.Audit(inst, assignments[i], nil, opt)
		reports = append(reports, rep)
		verdict := "ok"
		if !rep.OK() {
			verdict = fmt.Sprintf("%d violation(s)", len(rep.Violations))
			bad++
		}
		s := rep.Recomputed
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.4f\t%.4f\t%s\n",
			inst.CenterID, len(inst.Workers), s.Assigned, s.Difference, s.Average, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for i, rep := range reports {
		for _, v := range rep.Violations {
			fmt.Printf("center %d: %s\n", prob.Instances[i].CenterID, v.String())
		}
	}
	if bad > 0 {
		return fmt.Errorf("audit failed for %d of %d centers", bad, len(prob.Instances))
	}
	fmt.Printf("audit passed: %d center(s)\n", len(prob.Instances))
	return nil
}

func cmdOnline(args []string) error {
	fs := flag.NewFlagSet("online", flag.ContinueOnError)
	var (
		workers = fs.Int("workers", 8, "number of couriers")
		tasks   = fs.Int("tasks", 200, "number of arriving tasks")
		rate    = fs.Float64("rate", 40, "task arrivals per hour")
		window  = fs.Float64("window", 0.75, "delivery window per task in hours")
		space   = fs.Float64("space", 6, "side length of the service square in km")
		speed   = fs.Float64("speed", 12, "courier speed in km/h")
		seed    = fs.Int64("seed", 1, "random seed for the stream")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rate <= 0 || *tasks <= 0 || *workers <= 0 {
		return fmt.Errorf("rate, tasks and workers must be positive")
	}
	travel, err := fairtask.NewTravelModel(fairtask.Euclidean{}, *speed)
	if err != nil {
		return err
	}
	inst := &fairtask.Instance{
		Center: fairtask.Pt(*space/2, *space/2),
		Travel: travel,
	}
	rng := rand.New(rand.NewSource(*seed))
	for w := 0; w < *workers; w++ {
		inst.Workers = append(inst.Workers, fairtask.Worker{
			ID:  w,
			Loc: fairtask.Pt(rng.Float64()**space, rng.Float64()**space),
		})
	}
	type arrival struct {
		at   float64
		task fairtask.OnlineTask
	}
	stream := make([]arrival, *tasks)
	for i := range stream {
		at := float64(i) / *rate
		stream[i] = arrival{
			at: at,
			task: fairtask.OnlineTask{
				ID:     i,
				Loc:    fairtask.Pt(rng.Float64()**space, rng.Float64()**space),
				Expiry: at + *window,
				Reward: 1,
			},
		}
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tassigned\trejected\trate spread (P_dif)\tavg rate")
	for _, policy := range []fairtask.OnlinePolicy{fairtask.OnlineGreedy, fairtask.OnlineFairFirst} {
		m, err := fairtask.NewOnlineMatcher(inst, policy)
		if err != nil {
			return err
		}
		for _, a := range stream {
			m.Offer(a.at, a.task)
		}
		rep := m.Report()
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.4f\t%.4f\n",
			rep.Policy, rep.Assigned, rep.Rejected, rep.RateDifference, rep.RateAverage)
	}
	return tw.Flush()
}

func cmdRender(args []string) error {
	fs := flag.NewFlagSet("render", flag.ContinueOnError)
	var (
		in     = fs.String("in", "", "input problem CSV")
		center = fs.Int("center", -1, "center ID to draw (-1 = first)")
		alg    = fs.String("alg", "FGT", "algorithm: MPTA, GTA, FGT, IEGT, MMTA or LEXIFAIR")
		eps    = fs.Float64("eps", 0, "pruning threshold epsilon in km (0 = no pruning)")
		seed   = fs.Int64("seed", 1, "random seed for FGT/IEGT")
		out    = fs.String("out", "", "output SVG path (default stdout)")
		labels = fs.Bool("labels", false, "draw point and worker labels")
		width  = fs.Int("width", 720, "canvas width in pixels")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	prob, err := loadProblem(*in)
	if err != nil {
		return err
	}
	var inst *fairtask.Instance
	for i := range prob.Instances {
		if *center == -1 || prob.Instances[i].CenterID == *center {
			inst = &prob.Instances[i]
			break
		}
	}
	if inst == nil {
		return fmt.Errorf("center %d not found", *center)
	}
	opt := fairtask.Options{Algorithm: fairtask.Algorithm(*alg), Seed: *seed}
	if *eps > 0 {
		opt.VDPS.Epsilon = *eps
	} else {
		opt.VDPS.Epsilon = math.Inf(1)
	}
	res, err := fairtask.Solve(inst, opt)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return fairtask.RenderSVG(w, inst, res.Assignment, fairtask.RenderOptions{
		Width:      *width,
		ShowLabels: *labels,
	})
}

// newServerHandler builds the fully instrumented HTTP handler over the
// library's full algorithm set: solver telemetry flows into the handler's
// metrics registry and requests are logged to logger (nil disables logging).
// Split out so tests can mount it on httptest servers.
func newServerHandler(logger *slog.Logger) *server.Handler {
	h := server.New(func(algorithm string, seed int64) (fairtask.Assigner, error) {
		return fairtask.NewAssigner(fairtask.Options{Algorithm: fairtask.Algorithm(algorithm), Seed: seed})
	})
	rec := fairtask.NewMetricsRecorder(h.Registry)
	// Seed every algorithm's labeled metric families so dashboards and rate()
	// queries see them at zero from the first scrape instead of appearing
	// only after the first solve.
	algs := make([]string, 0, len(fairtask.ExtendedAlgorithms()))
	for _, a := range fairtask.ExtendedAlgorithms() {
		algs = append(algs, string(a))
	}
	rec.SeedAlgorithms(algs...)
	h.Recorder = rec
	h.Logger = logger
	return h
}

// newLogger builds a slog.Logger writing to w in the given format ("text"
// or "json") at the given minimum level ("debug", "info", "warn", "error").
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info", "":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text", "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
}

// mountPprof registers the net/http/pprof handlers on mux under
// /debug/pprof/, mirroring the package's DefaultServeMux registrations.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// newHTTPServer builds the serve command's http.Server with full connection
// timeouts. A server with only ReadHeaderTimeout lets a client that sends
// headers promptly and then trickles the body (or never reads the response)
// pin a connection forever; ReadTimeout, WriteTimeout and IdleTimeout bound
// every phase. Long-running solves belong on POST /jobs, which responds
// immediately, so WriteTimeout does not cap solve time.
func newHTTPServer(addr string, handler http.Handler, readTO, writeTO, idleTO time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       readTO,
		WriteTimeout:      writeTO,
		IdleTimeout:       idleTO,
	}
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8732", "listen address")
		withPprof  = fs.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
		logFormat  = fs.String("log-format", "text", "structured log format: text or json")
		logLevel   = fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
		jobWorkers = fs.Int("job-workers", 0, "async solve worker pool size (0 = GOMAXPROCS)")
		queueDepth = fs.Int("queue-depth", 64, "bounded job queue depth; full queue answers 429")
		jobTTL     = fs.Duration("job-ttl", 15*time.Minute, "how long finished job results stay queryable")
		solveTO    = fs.Duration("solve-timeout", 0, "per-solve deadline for /solve and /jobs (0 = none)")
		drainTO    = fs.Duration("drain-timeout", 30*time.Second, "shutdown grace for in-flight jobs before force-cancel")
		readTO     = fs.Duration("read-timeout", time.Minute, "max duration for reading a full request, body included (0 = none)")
		writeTO    = fs.Duration("write-timeout", 2*time.Minute, "max duration for writing a response; long solves should use POST /jobs (0 = none)")
		idleTO     = fs.Duration("idle-timeout", 2*time.Minute, "keep-alive idle connection timeout (0 = read-timeout)")
		degrade    = fs.Bool("degrade", false, "fall back exact→sampled→greedy when a solve stage fails or exceeds its budget")
		degradeTO  = fs.Duration("degrade-budget", 10*time.Second, "per-rung wall-clock budget for -degrade")
		retryMax   = fs.Int("retry-max", 0, "retry failed solves/jobs up to this many total attempts (0 = no retry)")
		failSpecs  = fs.String("fail", "", "arm chaos failpoints, e.g. 'vdps.generate:err:3' (dev only; see docs/RESILIENCE.md)")
		traceRing  = fs.Int("trace-ring", 32, "recent solve traces retained at GET /debug/traces (0 disables span tracing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := newLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	if *failSpecs != "" {
		if err := fault.ArmSpecs(*failSpecs); err != nil {
			return err
		}
		logger.Warn("chaos failpoints armed", "specs", *failSpecs)
	}
	handler := newServerHandler(logger)
	if *traceRing <= 0 {
		handler.Traces = nil
	} else {
		handler.Traces = obs.NewTraceRing(*traceRing)
	}
	if *degrade {
		handler.Degrade = &platform.Degrade{
			ExactBudget:   *degradeTO,
			SampledBudget: *degradeTO,
		}
	}
	var retry *fault.RetryPolicy
	if *retryMax > 1 {
		retry = &fault.RetryPolicy{MaxAttempts: *retryMax}
		handler.Retry = retry
	}
	manager := jobs.New(jobs.Config{
		Workers:    *jobWorkers,
		QueueDepth: *queueDepth,
		TTL:        *jobTTL,
		Timeout:    *solveTO,
		Metrics:    obs.NewJobsMetrics(handler.Registry),
		Retry:      retry,
		Fault:      obs.NewFaultMetrics(handler.Registry),
		Traces:     handler.Traces,
		Logger:     logger,
	})
	handler.Jobs = manager
	handler.SolveTimeout = *solveTO
	mux := http.NewServeMux()
	mux.Handle("/", handler)
	if *withPprof {
		mountPprof(mux)
	}
	srv := newHTTPServer(*addr, mux, *readTO, *writeTO, *idleTO)

	// Serve until SIGINT/SIGTERM, then drain: stop admitting jobs (flipping
	// /readyz to 503 so orchestrators stop routing here), let queued and
	// running solves finish within the grace period, and only then stop the
	// HTTP listener — status polls keep working throughout the drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr, "pprof", *withPprof,
		"job_workers", manager.Stats().Workers, "queue_depth", *queueDepth,
		"endpoints", "POST /solve, POST /jobs, GET /jobs/{id}, DELETE /jobs/{id}, GET /healthz, GET /readyz, GET /metrics")

	select {
	case err := <-errc:
		manager.Close(context.Background())
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	logger.Info("shutting down", "drain_timeout", *drainTO)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := manager.Close(drainCtx); err != nil {
		logger.Warn("drain incomplete, jobs force-canceled", "error", err.Error())
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	logger.Info("stopped")
	return nil
}
