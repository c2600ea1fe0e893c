// Command matchbench regenerates every table and figure of the paper's
// evaluation section on synthetic analog workloads.
//
// Usage:
//
//	matchbench -exp all                         # everything (minutes)
//	matchbench -exp table1,table2               # specific experiments
//	matchbench -exp fig3,fig4 -threads 1,2,4,8  # custom thread sweep
//	matchbench -exp table3 -scale paper         # paper-sized instances
//	matchbench -exp serve -pool 1,2,4,8         # ensemble fan-out width sweep
//	matchbench -exp cluster                     # sharded fleet vs direct replica
//
// Experiments: qualityfi, table1, table2, table3, fig3, fig4, fig5,
// conjecture, ablation, extension, perf, refine, serve, dyn, weighted,
// cluster.
//
// refine measures the exact-refinement engines (Hopcroft-Karp,
// push-relabel, and the parallel MS-BFS-Graft engine at 1/2/4 workers)
// completing one shared cheap warm start on adversarial instances, each
// engine searching from the side the library's refinements search from
// (the columns when an instance has fewer non-isolated columns than
// rows), so push-relabel is timed on every instance.
//
// The perf, refine, serve, dyn, weighted and cluster experiments
// additionally write their records to a machine-readable JSON file
// (-json, default BENCH_matchbench.json) so the performance trajectory
// can be tracked across commits, and any run can capture a CPU profile
// with -cpuprofile. serve measures per-request throughput of one-shot
// calls vs a reused Matcher session vs MatchBatch on small instances (the
// dispatch-bound serving regime). dyn measures batched-mutation
// throughput of dynamic sessions: incrementally maintained matchings vs a
// from-scratch recompute after every batch. weighted times the auction
// and its ensembles, and cluster a routed fleet against a direct replica.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
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
		exp     = flag.String("exp", "all", "comma-separated experiments: qualityfi,table1,table2,table3,fig3,fig4,fig5,conjecture,ablation,extension,perf,refine,serve,dyn,weighted,cluster")
		scale   = flag.String("scale", "small", "instance scale: tiny | small | paper")
		runs    = flag.Int("runs", 10, "randomized repetitions for min-quality tables")
		seed    = flag.Uint64("seed", 1, "base RNG seed")
		threads = flag.String("threads", "1,2,4,8,16", "thread sweep for speedup experiments")
		pool    = flag.String("pool", "", "comma-separated pool widths: sweep the serve experiment's candidate-parallel ensemble fan-out across these widths (empty disables)")
		jsonOut = flag.String("json", "BENCH_matchbench.json", "write perf records to this JSON file (empty disables)")
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
	var poolWidths []int
	if *pool != "" {
		for _, tok := range strings.Split(*pool, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || v < 1 {
				fmt.Fprintf(os.Stderr, "matchbench: bad -pool element %q\n", tok)
				return 2
			}
			poolWidths = append(poolWidths, v)
		}
	}
	cfg := bench.Config{
		Scale:   *scale,
		Threads: tl,
		Runs:    *runs,
		Seed:    *seed,
		Out:     os.Stdout,
	}.Defaults()

	want := map[string]bool{}
	for _, tok := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(strings.ToLower(tok))] = true
	}
	all := want["all"]
	ran := 0
	failed := 0
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
	var records []bench.PerfRecord
	runExp("perf", func() { records = append(records, bench.Perf(cfg)...) })
	runExp("refine", func() { records = append(records, bench.Refine(cfg)...) })
	runExp("serve", func() {
		records = append(records, serve(cfg)...)
		if len(poolWidths) > 0 {
			records = append(records, poolSweep(cfg, poolWidths)...)
		}
	})
	runExp("dyn", func() { records = append(records, dyn(cfg)...) })
	runExp("weighted", func() { records = append(records, weighted(cfg)...) })
	runExp("cluster", func() { records = append(records, clusterBench(cfg)...) })

	if len(records) > 0 && *jsonOut != "" {
		blob, err := json.MarshalIndent(struct {
			Schema  string             `json:"schema"`
			Scale   string             `json:"scale"`
			Seed    uint64             `json:"seed"`
			Records []bench.PerfRecord `json:"records"`
		}{"matchbench/perf/v1", cfg.Scale, cfg.Seed, records}, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "matchbench: -json: %v\n", err)
			failed = 1
		} else {
			blob = append(blob, '\n')
			if err := os.WriteFile(*jsonOut, blob, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "matchbench: -json: %v\n", err)
				failed = 1
			} else {
				fmt.Printf("%d bench records written to %s\n", len(records), *jsonOut)
			}
		}
	}

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "matchbench: no experiment matched %q\n", *exp)
		return 2
	}
	return failed
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
