// Command matchbench regenerates every table and figure of the paper's
// evaluation section on synthetic analog workloads, and times the
// library's other tiers on the same harness.
//
// Usage:
//
//	matchbench -exp all                         # everything (minutes)
//	matchbench -exp table1,table2               # specific experiments
//	matchbench -exp fig3,fig4 -threads 1,2,4,8  # custom thread sweep
//	matchbench -exp table3 -scale paper         # paper-sized instances
//	matchbench -exp perf -cpuprofile cpu.prof   # profile an experiment
//
// Experiments: qualityfi, table1, table2, table3, fig3, fig4, fig5,
// conjecture, ablation, extension, perf, refine, dyn, weighted.
//
// refine measures the exact-refinement engines (Hopcroft-Karp,
// push-relabel, and the parallel MS-BFS-Graft engine at 1/2/4 workers)
// completing one shared cheap warm start on adversarial instances, each
// engine searching from the side the library's refinements search from
// (the columns when an instance has fewer non-isolated columns than
// rows), so push-relabel is timed on every instance. dyn measures
// batched-mutation throughput of dynamic sessions: incrementally
// maintained matchings vs a from-scratch recompute after every batch.
// weighted times the auction and its ensembles.
//
// Every experiment prints a table. The first line of output names the
// hardware the tables were measured on: CPU count, GOMAXPROCS and Go
// version. The end-to-end benchmark, with paired comparisons between
// commits, is e2ebench (see e2ebench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() { os.Exit(run()) }

// run holds main's body so error exits unwind the deferred CPU-profile
// stop and file close instead of truncating the profile via os.Exit.
func run() int {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiments: qualityfi,table1,table2,table3,fig3,fig4,fig5,conjecture,ablation,extension,perf,refine,dyn,weighted")
		scale   = flag.String("scale", "small", "instance scale: tiny | small | paper")
		runs    = flag.Int("runs", 10, "randomized repetitions for min-quality tables")
		seed    = flag.Uint64("seed", 1, "base RNG seed")
		threads = flag.String("threads", "1,2,4,8,16", "thread sweep for speedup experiments")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "matchbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "matchbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	var tl []int
	for _, tok := range strings.Split(*threads, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "matchbench: bad -threads element %q\n", tok)
			return 2
		}
		tl = append(tl, v)
	}
	cfg := bench.Config{
		Scale:   *scale,
		Threads: tl,
		Runs:    *runs,
		Seed:    *seed,
		Out:     os.Stdout,
	}.Defaults()

	fmt.Printf("matchbench: %d CPUs, GOMAXPROCS %d, %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	want := map[string]bool{}
	for _, tok := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(strings.ToLower(tok))] = true
	}
	all := want["all"]
	ran := 0
	runExp := func(name string, f func()) {
		if !all && !want[name] {
			return
		}
		ran++
		start := time.Now()
		fmt.Printf("\n### %s (scale=%s)\n", name, cfg.Scale)
		f()
		fmt.Printf("### %s done in %v\n", name, time.Since(start).Round(time.Millisecond))
	}

	runExp("qualityfi", func() { bench.QualityFI(cfg, nil) })
	runExp("table1", func() { bench.Table1(cfg, 0) })
	runExp("table2", func() { bench.Table2(cfg, table2N(cfg.Scale)) })
	runExp("table3", func() { bench.Table3(cfg) })
	runExp("fig3", func() { bench.Fig3(cfg) })
	runExp("fig4", func() { bench.Fig4(cfg) })
	runExp("fig5", func() { bench.Fig5(cfg) })
	runExp("conjecture", func() { bench.Conjecture(cfg, nil) })
	runExp("ablation", func() {
		bench.AblationScaling(cfg, 0)
		bench.AblationSchedule(cfg, 0)
		bench.AblationKSVariants(cfg, 0)
	})
	runExp("extension", func() {
		bench.Walkup(cfg, nil)
		bench.Undirected(cfg, 0)
	})
	runExp("perf", func() { bench.Perf(cfg) })
	runExp("refine", func() { bench.Refine(cfg) })
	runExp("dyn", func() { dyn(cfg) })
	runExp("weighted", func() { weighted(cfg) })

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "matchbench: no experiment matched %q\n", *exp)
		return 2
	}
	return 0
}

func table2N(scale string) int {
	switch scale {
	case "tiny":
		return 5000
	case "paper":
		return 100000 // the paper's size
	default:
		return 50000
	}
}
