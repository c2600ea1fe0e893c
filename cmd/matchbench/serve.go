package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	bipartite "repro"
	"repro/internal/bench"
)

// serveInstances are the request-serving workloads: small instances, where
// per-request setup (scaling, allocation, dispatch) rivals the kernels —
// exactly the regime the Matcher/batch layers target.
func serveInstances(scale string) []struct {
	name string
	g    *bipartite.Graph
} {
	n := 10000
	switch scale {
	case "tiny":
		n = 2000
	case "paper":
		n = 50000
	}
	return []struct {
		name string
		g    *bipartite.Graph
	}{
		{"er-small", bipartite.RandomER(n, n, 4, 7)},
		{"pl-small", bipartite.PowerLaw(n, 2, 1.8, n/20, 9)},
	}
}

// serve measures per-request throughput of the TwoSided heuristic served
// six ways — one-shot calls, a reused Matcher session, width-1 and
// candidate-parallel best-of-8 ensembles, MatchBatch, and the long-lived
// Server under concurrent submitters (admission control and shared
// per-graph scaling included) — and returns perf-style records (ns_op is
// ns per request; speedup is versus the one-shot tier, except
// ensemble8par's, which is versus ensemble8).
func serve(cfg bench.Config) []bench.PerfRecord {
	cfg = cfg.Defaults()
	requests := 60 * cfg.Runs // 600 at the default 10 runs
	opt := &bipartite.Options{ScalingIterations: 5, Seed: cfg.Seed}

	var records []bench.PerfRecord
	tbl := &bench.Table{
		Title:   "serve: per-request throughput, one-shot vs matcher vs batched",
		Headers: []string{"instance", "edges", "mode", "workers", "us/req", "req/s", "speedup"},
	}
	for _, inst := range serveInstances(cfg.Scale) {
		g := inst.g
		g.Sprank() // warm the cache so Quality inside the timed runs is free
		var quality float64

		twoSided := func(k int) bipartite.Spec {
			return bipartite.Spec{Algorithm: bipartite.AlgTwoSided, Seed: cfg.Seed + uint64(k)}
		}
		oneshot := func() {
			for k := 0; k < requests; k++ {
				res, err := g.Match(twoSided(k), opt)
				if err != nil {
					panic(err)
				}
				quality = g.Quality(res.Matching)
			}
		}
		matcher := func() {
			m := g.NewMatcher(opt)
			for k := 0; k < requests; k++ {
				res, err := m.Run(twoSided(k))
				if err != nil {
					panic(err)
				}
				quality = g.Quality(res.Matching)
			}
		}
		// The ensemble tiers run the same number of TwoSided candidates as
		// the other tiers, but grouped into best-of-8 Specs on one warm
		// session — the jump-start-ensemble shape: one scaling, K kernels
		// per returned (best) matching. ensemble8 runs on a Workers: 1
		// session, whose candidates run one after another on its arena;
		// ensemble8par fans them out across the pool (one width-1 arena
		// per worker), the candidate-parallel schedule whose speedup over
		// ensemble8 this experiment records.
		width1 := *opt
		width1.Workers = 1
		reqs := make([]bipartite.Request, requests)
		for k := range reqs {
			reqs[k] = bipartite.Request{Graph: g, Spec: bipartite.Spec{Seed: cfg.Seed + uint64(k)}}
		}
		batched := func() {
			out := bipartite.MatchBatch(reqs, opt)
			quality = g.Quality(out[len(out)-1].Matching)
		}
		// The Server tier measures the full serving loop: bounded
		// admission, collector batching, warm arenas and the shared
		// per-graph scaling, hammered by concurrent submitters the way an
		// HTTP front end would.
		server := func() {
			srv := bipartite.NewServerConfig(opt,
				bipartite.ServerConfig{MaxBatch: 256, Queue: requests})
			const submitters = 8
			var wg sync.WaitGroup
			for s := 0; s < submitters; s++ {
				s := s
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := s; k < requests; k += submitters {
						resp := srv.Match(reqs[k])
						if resp.Err != nil {
							panic(resp.Err)
						}
						if k == requests-1 {
							quality = g.Quality(resp.Matching)
						}
					}
				}()
			}
			wg.Wait()
			srv.Close()
		}

		poolWidth := runtime.GOMAXPROCS(0)

		var anchor, ensembleSeq time.Duration
		for _, mode := range []struct {
			name    string
			workers int
			run     func()
		}{
			{"serve/oneshot", poolWidth, oneshot},
			{"serve/matcher", poolWidth, matcher},
			{"serve/ensemble8", 1, bestOf8(g, &width1, cfg.Seed, requests, &quality)},
			{"serve/ensemble8par", poolWidth, bestOf8(g, opt, cfg.Seed, requests, &quality)},
			{"serve/batch", poolWidth, batched},
			{"serve/server", poolWidth, server},
		} {
			best := bench.TimeBest(3, mode.run)
			switch mode.name {
			case "serve/oneshot":
				anchor = best
			case "serve/ensemble8":
				ensembleSeq = best
			}
			perReq := best / time.Duration(requests)
			// Speedups are versus the one-shot tier — except ensemble8par,
			// whose speedup is versus the width-1 ensemble8 tier: that
			// ratio is the candidate-parallel fan-out's win, the number this
			// experiment exists to track.
			speedup := float64(anchor) / float64(best)
			if mode.name == "serve/ensemble8par" {
				speedup = float64(ensembleSeq) / float64(best)
			}
			records = append(records, bench.PerfRecord{
				Instance:  inst.name,
				Edges:     g.Edges(),
				Heuristic: mode.name,
				Workers:   mode.workers,
				NsOp:      perReq.Nanoseconds(),
				Quality:   quality,
				Speedup:   speedup,
			})
			tbl.AddRow(inst.name, fmt.Sprintf("%d", g.Edges()), mode.name,
				fmt.Sprintf("%d", mode.workers),
				fmt.Sprintf("%.1f", float64(perReq.Microseconds())),
				fmt.Sprintf("%.0f", float64(requests)/best.Seconds()),
				fmt.Sprintf("%.2f", speedup))
		}
	}
	tbl.Write(cfg.Out)
	return records
}

// poolSweep (the -pool flag) measures the candidate-parallel best-of-8
// ensemble at each requested pool width against a Workers: 1 session,
// isolating the fan-out schedule's scaling curve: where the curve
// flattens is the width past which extra ensemble workers only burn
// cores. Each width gets its own dedicated Pool (built and closed around
// the timed runs), so the sweep reflects resident-worker fan-out, not
// the process-default pool at whatever width it happens to have.
func poolSweep(cfg bench.Config, widths []int) []bench.PerfRecord {
	cfg = cfg.Defaults()
	requests := 60 * cfg.Runs
	var records []bench.PerfRecord
	tbl := &bench.Table{
		Title:   "serve: best-of-8 ensemble fan-out vs pool width (-pool)",
		Headers: []string{"instance", "edges", "mode", "workers", "us/req", "req/s", "speedup"},
	}
	for _, inst := range serveInstances(cfg.Scale) {
		g := inst.g
		g.Sprank() // warm the cache so Quality inside the timed runs is free
		var quality float64
		var anchor time.Duration
		emit := func(name string, workers int, best time.Duration) {
			perReq := best / time.Duration(requests)
			speedup := float64(anchor) / float64(best)
			records = append(records, bench.PerfRecord{
				Instance:  inst.name,
				Edges:     g.Edges(),
				Heuristic: name,
				Workers:   workers,
				NsOp:      perReq.Nanoseconds(),
				Quality:   quality,
				Speedup:   speedup,
			})
			tbl.AddRow(inst.name, fmt.Sprintf("%d", g.Edges()), name,
				fmt.Sprintf("%d", workers),
				fmt.Sprintf("%.1f", float64(perReq.Microseconds())),
				fmt.Sprintf("%.0f", float64(requests)/best.Seconds()),
				fmt.Sprintf("%.2f", speedup))
		}

		width1 := &bipartite.Options{ScalingIterations: 5, Seed: cfg.Seed, Workers: 1}
		anchor = bench.TimeBest(3, bestOf8(g, width1, cfg.Seed, requests, &quality))
		emit("serve/ensemble8/seq", 1, anchor)
		for _, w := range widths {
			pool := bipartite.NewPool(w)
			wopt := &bipartite.Options{ScalingIterations: 5, Seed: cfg.Seed, Pool: pool}
			best := bench.TimeBest(3, bestOf8(g, wopt, cfg.Seed, requests, &quality))
			pool.Close()
			emit(fmt.Sprintf("serve/ensemble8/pool%d", w), w, best)
		}
	}
	tbl.Write(cfg.Out)
	return records
}

// bestOf8 returns one timed run of the ensemble tiers: requests/8
// best-of-8 TwoSided Specs, seeds seed+8k onward, on one session with the
// given options. Each Spec's quality is stored in *quality.
func bestOf8(g *bipartite.Graph, opt *bipartite.Options, seed uint64, requests int, quality *float64) func() {
	return func() {
		m := g.NewMatcher(opt)
		for k := 0; k < requests/8; k++ {
			res, err := m.Run(bipartite.Spec{
				Algorithm: bipartite.AlgTwoSided,
				Seed:      seed + uint64(8*k),
				Ensemble:  8,
			})
			if err != nil {
				panic(err)
			}
			*quality = g.Quality(res.Matching)
		}
	}
}
