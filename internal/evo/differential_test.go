package evo

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fairtask/internal/assign"
	"fairtask/internal/dataset"
	"fairtask/internal/game"
	"fairtask/internal/vdps"
)

// sameResult requires bit-identical results from the allocation-free IEGT
// and the retained reference implementation.
func sameResult(t *testing.T, label string, got, want *game.Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged || got.Switches != want.Switches {
		t.Fatalf("%s: (iterations, converged, switches) = (%d, %v, %d), reference (%d, %v, %d)",
			label, got.Iterations, got.Converged, got.Switches, want.Iterations, want.Converged, want.Switches)
	}
	for w := range want.Assignment.Routes {
		if !slices.Equal(got.Assignment.Routes[w], want.Assignment.Routes[w]) {
			t.Fatalf("%s: worker %d route %v, reference %v",
				label, w, got.Assignment.Routes[w], want.Assignment.Routes[w])
		}
	}
	if got.Summary.Difference != want.Summary.Difference ||
		got.Summary.Average != want.Summary.Average ||
		got.Summary.Total != want.Summary.Total {
		t.Fatalf("%s: summary %+v, reference %+v", label, got.Summary, want.Summary)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("%s: trace length %d, reference %d", label, len(got.Trace), len(want.Trace))
	}
	for i := range want.Trace {
		if got.Trace[i] != want.Trace[i] {
			t.Fatalf("%s: trace[%d] = %+v, reference %+v", label, i, got.Trace[i], want.Trace[i])
		}
	}
}

// TestIEGTMatchesReference pins the optimized IEGT bit-exactly against the
// retained pre-index implementation: the allocation-free population scans
// and scratch-buffer strategy selection must not change a single rng draw,
// switch, iteration count, or traced statistic. The lattice's exact payoff
// ties pin the candidate tie-break of the NthBest draws.
func TestIEGTMatchesReference(t *testing.T) {
	instances := map[string]int64{"a": 1, "b": 5, "tight": 9, "lattice": 0}
	variants := map[string]Options{
		"default":   {},
		"trace":     {Trace: true},
		"mutation":  {MutationRate: 0.3, Trace: true},
		"tolerance": {Tolerance: 0.5},
	}
	for iname, iseed := range instances {
		in := gridInstance(10, 5, 2, 100, iseed)
		switch iname {
		case "tight":
			in = gridInstance(8, 6, 2, 6, iseed)
		case "lattice":
			in = latticeInstance()
		}
		g := mustGen(t, in)
		for vname, opt := range variants {
			for seed := int64(0); seed < 4; seed++ {
				opt := opt
				opt.Seed = seed
				got, err := IEGT(context.Background(), game.NewState(g), opt)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ReferenceIEGT(context.Background(), g, opt)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, iname+"/"+vname, got, want)
			}
		}
	}
}

// TestIEGTOnDemandMatchesNewState pins IEGT on a state whose lists are
// built on demand to IEGT on game.NewState's: on W200 (GM 1000/200/150, ε
// 0.6) at three seeds, with and without mutation, the results are
// bit-identical — routes, summary, payoff bits, rounds, switches, trace and
// Φ — and the run asks for the lists, so the state holds them afterwards.
func TestIEGTOnDemandMatchesNewState(t *testing.T) {
	in, err := dataset.GenerateGM(dataset.GMConfig{Seed: 1, Tasks: 1000, Workers: 200, DeliveryPoints: 150})
	if err != nil {
		t.Fatal(err)
	}
	g, err := vdps.Generate(in, vdps.Options{Epsilon: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, mutation := range []float64{0, 0.3} {
			label := fmt.Sprintf("W200 seed %d mutation %v", seed, mutation)
			opt := Options{Seed: seed, MutationRate: mutation, Trace: true}
			want, err := IEGT(context.Background(), game.NewState(g), opt)
			if err != nil {
				t.Fatal(err)
			}
			s := game.NewStateOnDemand(g)
			got, err := IEGT(context.Background(), s, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, label, got, want)
			for w := range want.Summary.Payoffs {
				if math.Float64bits(got.Summary.Payoffs[w]) != math.Float64bits(want.Summary.Payoffs[w]) {
					t.Fatalf("%s: worker %d payoff %v, NewState %v", label, w, got.Summary.Payoffs[w], want.Summary.Payoffs[w])
				}
			}
			if math.Float64bits(got.Potential) != math.Float64bits(want.Potential) {
				t.Fatalf("%s: Φ %v, NewState %v", label, got.Potential, want.Potential)
			}
			if s.Strategies == nil {
				t.Fatalf("%s: IEGT left the on-demand state without lists", label)
			}
		}
	}
}

// TestSolversIgnoreListOrder pins that payoff order is a rule, not a data
// layout: every Assigner played on a state whose strategy lists were
// shuffled must reproduce its run on a fresh state exactly, routes,
// iterations and traces included. The lattice's exact payoff ties make the
// candidate tie-break decide too. LEXIFAIR and EXACT search joint
// strategies, so they play the small instances only: the 6-point grid and
// the lattice's inner ring, whose ties make their first-found optimum depend
// on the payoff order. MPTA's top-4 cut reads the payoff order too; its
// node budget keeps the lattice search short, so it ends on the budget.
// MPTA's branching order and suffix bound read it as well: the bound takes
// each list's first entry as the worker's best payoff. On the tight grid's
// short deadlines the greedy warm start is not the search's best answer,
// so a search over unsorted lists ends elsewhere than the sorted one; on
// the other instances the warm start already is the best answer.
func TestSolversIgnoreListOrder(t *testing.T) {
	gm, err := dataset.GenerateGM(dataset.GMConfig{Seed: 1, Tasks: 400, Workers: 60, DeliveryPoints: 50})
	if err != nil {
		t.Fatal(err)
	}
	gmGen, err := vdps.Generate(gm, vdps.Options{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	lattice := mustGen(t, latticeInstance())
	ring := mustGen(t, latticeOf(1, 3, 2))
	grid := mustGen(t, gridInstance(6, 4, 2, 100, 3))
	tight := mustGen(t, gridInstance(8, 6, 2, 6, 2))
	shuffled := func(g *vdps.Generator, seed int64) *game.State {
		s := game.NewState(g)
		rng := rand.New(rand.NewSource(seed))
		for _, list := range s.Strategies {
			rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		}
		return s
	}
	check := func(label string, g *vdps.Generator, solver assign.Assigner, seed int64) {
		t.Helper()
		ctx := context.Background()
		want, err := solver.Assign(ctx, game.NewState(g))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got, err := solver.Assign(ctx, shuffled(g, seed))
		if err != nil {
			t.Fatalf("%s: shuffled: %v", label, err)
		}
		sameResult(t, label, got, want)
	}
	for name, g := range map[string]*vdps.Generator{"gm": gmGen, "lattice": lattice} {
		for seed := int64(1); seed <= 5; seed++ {
			label := fmt.Sprintf("%s seed %d", name, seed)
			check(label+" FGT", g, game.Options{Seed: seed, Trace: true}, seed)
			check(label+" IEGT", g, Options{Seed: seed, Trace: true}, seed)
		}
	}
	baselines := []assign.Assigner{assign.GTA{}, assign.MPTA{TopK: 4, NodeBudget: 50_000}, assign.MMTA{}}
	for name, g := range map[string]*vdps.Generator{"lattice": lattice, "ring": ring, "grid": grid, "tight": tight} {
		solvers := baselines
		if g == ring || g == grid {
			solvers = append(solvers, assign.Lexifair{}, assign.Exact{})
		}
		for seed := int64(1); seed <= 3; seed++ {
			for _, solver := range solvers {
				check(fmt.Sprintf("%s seed %d %s", name, seed, solver.Name()), g, solver, seed)
			}
		}
	}
}

// TestRepairedTableTiesMatchGenerate pins the tie rule on a repaired
// candidate table. RepairExpiries appends the candidates it regenerates, so
// after it tightens the deadlines of low-numbered lattice points, a
// regenerated candidate sits at a higher table index than retained ones the
// candidates' own order puts after it, among the lattice's thousands of
// exact payoff ties. FGT and IEGT (both traced) and VerifyNE — on a random
// initial state and on each solver's result — played over the repaired
// generator must equal the same runs over a fresh Generate of the mutated
// instance: routes, payoff bits, iterations, switches, traces and the
// certificate's verdict. The chain must reorder ties on every step and must
// run through a compaction as well as steps that leave tombstones.
func TestRepairedTableTiesMatchGenerate(t *testing.T) {
	ctx := context.Background()
	in := latticeInstance()
	g := mustGen(t, in)
	compacted, tombstoned := 0, 0
	for step := 0; step < 6; step++ {
		mutated := in.Clone()
		pts := []int{step, step + 6}
		for _, p := range pts {
			mutated.Points[p].Tasks[0].Expiry -= float64(1 + step)
		}
		g.Rebind(mutated)
		if _, err := g.RepairExpiries(ctx, pts); err != nil {
			t.Fatal(err)
		}
		if len(g.Candidates()) == g.Stats().Candidates {
			compacted++
		} else {
			tombstoned++
		}
		fresh := mustGen(t, mutated)
		if n := reorderedTies(game.NewState(g)); n == 0 {
			t.Fatalf("step %d: no tied strategies whose table order differs from the candidate order", step)
		}
		verdict := func(s *game.State) string {
			return fmt.Sprint(game.VerifyNE(s, game.Options{}))
		}
		for seed := int64(1); seed <= 3; seed++ {
			label := fmt.Sprintf("step %d seed %d", step, seed)
			for _, solver := range []assign.Assigner{game.Options{Seed: seed, Trace: true}, Options{Seed: seed, Trace: true}} {
				got, err := solver.Assign(ctx, game.NewState(g))
				if err != nil {
					t.Fatal(err)
				}
				want, err := solver.Assign(ctx, game.NewState(fresh))
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, label+" "+solver.Name(), got, want)
				if v, w := verdict(loaded(t, g, got.Assignment)), verdict(loaded(t, fresh, want.Assignment)); v != w {
					t.Fatalf("%s %s: certificate %q, fresh %q", label, solver.Name(), v, w)
				}
			}
			s, f := game.NewState(g), game.NewState(fresh)
			s.RandomInit(rand.New(rand.NewSource(seed)))
			f.RandomInit(rand.New(rand.NewSource(seed)))
			if v, w := verdict(s), verdict(f); v != w || v == "<nil>" {
				t.Fatalf("%s: random-start certificate %q, fresh %q", label, v, w)
			}
		}
		in = mutated
	}
	if compacted == 0 || tombstoned == 0 {
		t.Fatalf("%d steps compacted, %d left tombstones; want both", compacted, tombstoned)
	}
}

// reorderedTies counts the adjacent pairs of exactly tied strategies, in
// each worker's list sorted by payoff and then table index, whose table
// order disagrees with the candidates' own order (set size, then points).
func reorderedTies(s *game.State) int {
	g := s.Generator()
	n := 0
	for _, list := range s.Strategies {
		list = slices.Clone(list)
		slices.SortFunc(list, func(a, b vdps.StrategyRef) int {
			if a.Payoff != b.Payoff {
				if a.Payoff > b.Payoff {
					return -1
				}
				return 1
			}
			return int(a.Cand) - int(b.Cand)
		})
		for i := 1; i < len(list); i++ {
			pa, pb := g.RefPoints(list[i-1]), g.RefPoints(list[i])
			if list[i-1].Payoff == list[i].Payoff && (len(pa) > len(pb) || len(pa) == len(pb) && slices.Compare(pa, pb) > 0) {
				n++
			}
		}
	}
	return n
}
