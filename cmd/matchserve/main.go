// Command matchserve is an HTTP/JSON matching service on top of the
// library's batching Server: a receiver→worker→writer loop where the
// receiver is the HTTP layer, the worker is the pool-wide batch engine
// with its per-slot Matcher arenas, and the writer streams the decoded
// matchings back as JSON. Concurrent requests are drained into shared
// batches, so the service amortizes dispatch and workspace setup exactly
// like the in-process API.
//
// The service is production-shaped: request bodies are size-capped
// (-maxbody, HTTP 413 beyond it), every matching request carries the HTTP
// request's context plus an optional deadline (-timeout or a per-request
// "timeout_ms", HTTP 504 when it expires), a full admission queue answers
// 503 instead of queueing without bound, the graph registry evicts its
// least recently used entry once -maxgraphs is reached, and per-op latency
// histograms are exported on /metrics.
//
// The service also protects itself. A watchdog samples the process's own
// CPU and RSS (-cpulimit, -rsslimit, -wdinterval) and drives a shedding
// ladder: under mild pressure every admitted request runs a downgraded
// Spec (exact refinement dropped, ensembles capped — the response then
// carries a "degraded" provenance field and still satisfies the paper's
// heuristic quality bound); under heavier pressure "priority":"low"
// requests are shed with 503, then everything below "priority":"high".
// Per-client token buckets (-rate, -burst, keyed by the X-Client header
// or the remote host) answer greedy clients 429, and a queue-aware
// admission check rejects requests whose deadline the backlog has already
// doomed with 429 instead of burning kernels on them. Every 429/503
// carries a Retry-After header with the admission layer's estimate of
// when retrying can succeed.
//
// Endpoints:
//
//	POST /graph        register a graph: {"rows":R,"cols":C,"edges":[[i,j],...]}
//	                   optionally weighted with "weights":[w,...] (one
//	                   strictly positive finite weight per edge)
//	                   → {"id":"g1","rows":R,"cols":C,"edges":E}
//	                   (registering past -maxgraphs evicts the least
//	                   recently used graph)
//	DELETE /graph/{id} evict a registered graph explicitly (this also drops
//	                   the engine's cached scaling of the graph)
//	PATCH /graph/{id}  mutate a registered graph in place:
//	                   {"insert":[[i,j],...],"delete":[[i,j],...]}
//	                   → {"id":"g1","rows":R,"cols":C,"edges":E,
//	                      "inserted":I,"deleted":D,"freed":F,
//	                      "augments":A,"maintained_size":S}
//	                   (the matching is maintained incrementally by an
//	                   exact dynamic session, so "maintained_size" is the
//	                   mutated graph's structural rank; deletes apply
//	                   before inserts, the batch is atomic — an
//	                   out-of-range endpoint 400s with nothing applied —
//	                   and later /match requests run on the mutated graph,
//	                   the stale cached scaling dropped coherently; on a
//	                   weighted graph the session is an ε-scaling auction
//	                   instead, inserts may carry "weights":[w,...] — one
//	                   per inserted edge, a weight on a present edge
//	                   updates it — and the reply adds
//	                   "maintained_weight":W, the re-auctioned matched
//	                   weight on the mutated graph)
//	POST /match        match once: {"graph":"g1","algorithm":"twosided",
//	                   "seed":7,"refine":"exact","best_of":8,"target":0.95,
//	                   "timeout_ms":50,"priority":"low"}
//	                   or with an inline graph:
//	                   {"rows":..,"cols":..,"edges":..,"algorithm":..}
//	                   → {"size":S,"rows":R,"cols":C,"row_mate":[...],
//	                      "winner_seed":9,"candidates_run":3,
//	                      "heuristic_size":H,"refined":true,
//	                      "refined_with":"graft",
//	                      "degraded":"refine:exact->none","ms":1.2}
//	                   ("degraded" appears only on responses the watchdog
//	                   downgraded; the X-Client header names the caller
//	                   for per-client rate limiting)
//	POST /match/batch  {"requests":[<match request>, ...]}
//	                   → {"responses":[<match response | error>, ...],"ms":batchMs}
//	                   (request and response envelopes may be gzip-encoded:
//	                   send Content-Encoding: gzip and/or Accept-Encoding: gzip)
//	GET  /healthz      → {"status":"ok"}
//	GET  /stats        → {"requests":N,"batches":B,"rejected":J,"shed":S,
//	                      "would_miss":W,"rate_limited":L,"degraded":D,
//	                      "graphs":G,"evictions":E}
//	GET  /metrics      → {"ops":{"twosided":{"count":N,"p50_ms":..,"p99_ms":..},..},
//	                      "watchdog":{"level":"nominal","cpu":..,
//	                      "rss_bytes":..,"utilization":..},
//	                      "requests":N,"batches":B,"rejected":J,...}
//	                   with ?format=prom (or an Accept header asking for
//	                   text/plain / OpenMetrics), the same counters,
//	                   gauges and histograms in Prometheus text format
//
// Match requests carry the library's declarative Spec on the wire:
// "algorithm" selects the heuristic (twosided, onesided, karpsipser,
// karpsipser-parallel, cheap-edge, cheap-vertex, auction; the pre-Spec
// "op" alias was removed, and a request that still carries it is refused
// with a 400 naming "algorithm" — in-band inside a batch — rather than
// run as the default), "refine" augments the heuristic matching toward
// maximum cardinality ("exact" = Hopcroft–Karp jump-start, "pushrelabel" =
// the push-relabel/auction family), "best_of":K runs a best-of-K seed
// ensemble on one shared scaling (inside the batch engine's width-1 slots
// its candidates run one after another), and "target" stops the ensemble
// early at the given quality fraction. Invalid specs are answered with
// precise 400s before any kernel runs.
//
// "algorithm":"auction" is the weighted objective: the ε-scaling auction
// maximizes the matched weight, guaranteed ≥ (1−ε)·optimal with
// "epsilon" (0 = the library default of 0.05; must lie in (0,1) and is
// only valid with auction, which also rejects "refine" and "target" —
// its objective is weight, theirs cardinality). On a pattern graph every
// edge weighs 1.0, so the auction degenerates to cardinality. Successful
// auction responses extend the provenance with "matched_weight" (the
// weight of the returned matching), "epsilon" (the resolved slack behind
// its guarantee) and "rounds" (bidding rounds run); "best_of" ensembles
// share one deterministic price warm-start and finish each candidate
// from its own bidding seed, heaviest matching wins.
//
// Every successful match response carries the engine's provenance:
// "winner_seed" (the ensemble seed that produced the matching),
// "candidates_run" (how many candidates were consumed — a target or the
// ensemble-aware refinement may stop the sweep before best_of),
// "heuristic_size" (the winner's cardinality before refinement),
// "refined" (whether a refinement stage ran) and "refined_with" (the
// engine that ran — reports the auto-selection outcome when the request
// asked for "exact"). size − heuristic_size is exactly the work the
// exact solver added on top of the jump-start.
//
// Registering a graph once and matching it by id is the warm path: the
// graph keeps one scaling (shared by every batch slot and the graph's
// dynamic session), so a seed-sweep workload pays the scaling sweeps once
// and the sampling kernels per request. Evicting a graph — explicitly or
// via the LRU cap — releases it, its scaling with it, and drops its
// service-time estimates through Server.DropGraph.
//
// Usage:
//
//	matchserve -addr :8480 -batch 256 -queue 1024 -workers 0 -iters 5 \
//	           -maxgraphs 1024 -maxbody 8388608 -timeout 0 \
//	           -cpulimit -1 -rsslimit 0 -wdinterval 1s -rate 0 -burst 0
//
// -cpulimit defaults to -1 (automatic): 0.85 of the cgroup v2 CPU quota
// when one throttles the process, 0.85 of the whole machine otherwise.
//
// The handler itself lives in the importable internal/servehttp package,
// so the cluster integration suite and cmd/matchrouter's tests can boot
// replicas in-process; this command is the flags-and-listener shell
// around it.
package main

import (
	"flag"
	"log"
	"net/http"
	"time"

	bipartite "repro"
	"repro/internal/servehttp"
)

func main() {
	var (
		addr      = flag.String("addr", ":8480", "listen address")
		batch     = flag.Int("batch", 256, "max requests drained into one batch")
		queue     = flag.Int("queue", 0, "admission queue depth (0 = 4x batch)")
		workers   = flag.Int("workers", 0, "parallel width (0 = all CPUs)")
		iters     = flag.Int("iters", 5, "Sinkhorn-Knopp scaling iterations")
		maxGraphs = flag.Int("maxgraphs", 1024, "max registered graphs before LRU eviction (0 = unlimited)")
		maxBody   = flag.Int64("maxbody", 8<<20, "max request body bytes (0 = unlimited)")
		timeout   = flag.Duration("timeout", 0, "default per-request deadline (0 = none)")

		cpuLimit   = flag.Float64("cpulimit", -1, "watchdog CPU limit as a fraction of all cores (0 = CPU dimension off; negative = auto: 0.85 of the cgroup v2 CPU quota when one throttles the process, of the whole machine otherwise)")
		rssLimit   = flag.Int64("rsslimit", 0, "watchdog RSS limit in bytes (0 = RSS dimension off)")
		wdInterval = flag.Duration("wdinterval", time.Second, "watchdog sampling interval")
		rate       = flag.Float64("rate", 0, "per-client admission rate in requests/s (0 = unlimited)")
		burst      = flag.Int("burst", 0, "per-client burst ceiling (0 = 2x rate)")
	)
	flag.Parse()

	cpu := *cpuLimit
	if cpu < 0 {
		cpu = bipartite.AutoCPULimit(0.85)
	}
	opt := &bipartite.Options{ScalingIterations: *iters, Workers: *workers}
	srv := bipartite.NewServerConfig(opt, bipartite.ServerConfig{
		MaxBatch: *batch,
		Queue:    *queue,
		Watchdog: bipartite.WatchdogConfig{
			CPULimit: cpu,
			RSSLimit: uint64(max(*rssLimit, 0)),
			Interval: *wdInterval,
		},
		RatePerClient: *rate,
		RateBurst:     *burst,
	})
	h := servehttp.NewHandler(srv, servehttp.Config{
		MaxGraphs: *maxGraphs,
		MaxBody:   *maxBody,
		Timeout:   *timeout,
	})

	log.Printf("matchserve listening on %s (batch=%d queue=%d workers=%d iters=%d maxgraphs=%d maxbody=%d timeout=%v cpulimit=%g rsslimit=%d rate=%g)",
		*addr, *batch, *queue, *workers, *iters, *maxGraphs, *maxBody, *timeout, cpu, *rssLimit, *rate)
	// log.Fatal would os.Exit past any deferred Close; shut the batching
	// server down explicitly once the listener fails.
	err := http.ListenAndServe(*addr, servehttp.NewMux(h))
	h.Close()
	log.Fatal(err)
}
