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
// conjecture, ablation, extension, perf, refine, dyn, weighted. Each is
// defined in internal/bench, whose documentation says what it measures;
// this command only parses flags and runs the selected ones in that
// order.
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
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

// experiment is one -exp name and what it runs.
type experiment struct {
	name string
	run  func(bench.Config)
}

// experiments are the -exp names, in the order -exp all runs them.
var experiments = []experiment{
	{"qualityfi", func(c bench.Config) { bench.QualityFI(c, nil) }},
	{"table1", func(c bench.Config) { bench.Table1(c, 0) }},
	{"table2", func(c bench.Config) { bench.Table2(c, 0) }},
	{"table3", func(c bench.Config) { bench.Table3(c) }},
	{"fig3", func(c bench.Config) { bench.Fig3(c) }},
	{"fig4", func(c bench.Config) { bench.Fig4(c) }},
	{"fig5", func(c bench.Config) { bench.Fig5(c) }},
	{"conjecture", func(c bench.Config) { bench.Conjecture(c, nil) }},
	{"ablation", func(c bench.Config) {
		bench.AblationScaling(c, 0)
		bench.AblationSchedule(c, 0)
		bench.AblationKSVariants(c, 0)
	}},
	{"extension", func(c bench.Config) {
		bench.Walkup(c, nil)
		bench.Undirected(c, 0)
	}},
	{"perf", bench.Perf},
	{"refine", bench.Refine},
	{"dyn", func(c bench.Config) { bench.Dyn(c) }},
	{"weighted", func(c bench.Config) { bench.Weighted(c) }},
}

func main() { os.Exit(run()) }

// run holds main's body so error exits unwind the deferred CPU-profile
// stop and file close instead of truncating the profile via os.Exit.
func run() int {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	var (
		exp     = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(names, ","))
		scale   = flag.String("scale", "small", "instance scale: tiny | small | paper")
		runs    = flag.Int("runs", 10, "randomized repetitions for min-quality tables")
		seed    = flag.Uint64("seed", 1, "base RNG seed")
		threads = flag.String("threads", "1,2,4,8,16", "thread sweep for speedup experiments")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	)
	flag.Parse()
	selected, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "matchbench: -exp: %v\n", err)
		return 2
	}

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

	for _, e := range selected {
		start := time.Now()
		fmt.Printf("\n### %s (scale=%s)\n", e.name, cfg.Scale)
		e.run(cfg)
		fmt.Printf("### %s done in %v\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// selectExperiments returns the experiments a comma-separated -exp list
// names, in table order; "all" names every one. Names are trimmed and
// matched without regard to case. The error names every unknown name.
func selectExperiments(list string) ([]experiment, error) {
	want := map[string]bool{}
	var unknown []string
	for _, tok := range strings.Split(list, ",") {
		name := strings.TrimSpace(strings.ToLower(tok))
		known := name == "all" || slices.ContainsFunc(experiments, func(e experiment) bool { return e.name == name })
		if !known {
			unknown = append(unknown, strconv.Quote(name))
		}
		want[name] = true
	}
	switch len(unknown) {
	case 0:
	case 1:
		return nil, fmt.Errorf("unknown experiment %s", unknown[0])
	default:
		return nil, fmt.Errorf("unknown experiments %s", strings.Join(unknown, ", "))
	}
	var out []experiment
	for _, e := range experiments {
		if want["all"] || want[e.name] {
			out = append(out, e)
		}
	}
	return out, nil
}
