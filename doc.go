// Package bipartite implements randomized bipartite matching heuristics
// with quality guarantees for shared-memory parallel execution,
// reproducing Dufossé, Kaya and Uçar, "Bipartite matching heuristics with
// quality guarantees on shared memory parallel computers" (Inria RR-8386 /
// IPDPS 2014).
//
// # Overview
//
// The library computes large bipartite matchings with two heuristics that
// scale the adjacency matrix to doubly stochastic form (Sinkhorn–Knopp)
// and use the scaled entries as sampling densities:
//
//   - OneSidedMatch (AlgOneSided): every row samples one column, and each
//     chosen column takes the largest row that chose it; guaranteed
//     ≥ (1 − 1/e) ≈ 0.632 of the maximum matching on matrices with total
//     support.
//   - TwoSidedMatch (AlgTwoSided): rows and columns both sample, and the
//     resulting "1-out" graph is matched exactly by the paper's
//     specialized Karp–Sipser kernel; conjectured (and experimentally
//     confirmed) ≥ 2(1 − ρ) ≈ 0.866 of the maximum, where ρ solves
//     x·eˣ = 1.
//
// Graph.MaximumMatching (an exact maximum matching, solved cold or
// completed from a heuristic warm start), the classic Karp–Sipser
// heuristic, cheap 1/2-approximation baselines, Dulmage–Mendelsohn
// decomposition, Matrix Market I/O and a collection of workload
// generators round out the toolkit.
//
// # Quick start
//
//	g := bipartite.RandomER(100000, 100000, 4.0, 42)
//	spec := bipartite.Spec{Algorithm: bipartite.AlgTwoSided}
//	res, _ := g.Match(spec, nil)            // defaults: 5 scaling iters, all cores
//	max := g.Sprank()                       // exact maximum for comparison
//	fmt.Printf("matched %d of %d (quality %.3f)\n",
//		res.Matching.Size, max, float64(res.Matching.Size)/float64(max))
//
// # Execution model
//
// Every parallel stage — the scaling sweeps and the sampling region — is
// dispatched to a persistent pool of parked workers rather than to
// freshly spawned goroutines, so the dozens of parallel regions inside
// one matching call cost a channel handoff each instead of a goroutine
// spawn. By default the stages share one process-wide pool
// sized to GOMAXPROCS; servers that want isolation or a width cap create
// a Pool explicitly and pass it via Options.Pool — one warm worker set
// then serves any number of concurrent matching calls.
//
// The Sinkhorn–Knopp stage runs a fused loop that touches the matrix
// twice per iteration instead of three times (the convergence-error sweep
// is folded into the next column pass, and on a graph without edge values
// the first column pass reads only the column degrees, so 5 iterations
// make 10 sweeps) and hands its final row/column sums to the sampling
// stage, which therefore draws each edge with a single prefix walk
// instead of a sum pass plus a walk pass. The fusion is exact: reported
// errors, scaling vectors and sampled choices are bit-identical to the
// textbook formulation.
//
// A Graph computes its scaling once per iteration count and keeps it
// (16 bytes a vertex, freed with the Graph): every Graph.Match, Matcher,
// batch slot and dynamic session on the Graph shares that one result,
// read-only. A scaling is a pure function of (Graph, iteration count) at
// any width, so sharing changes no bit of any answer.
//
// Every Sinkhorn–Knopp pass walks the CSR of the graph, or of its
// transpose, in index order and sums each row left to right;
// FuzzSinkhornKnopp in internal/scale holds the fused loop to the
// textbook one, bit for bit, at widths 1 to 3.
//
// Both heuristics sample through one parallel region that walks each
// side's rows grouped by degree (OneSided walks only the rows), in an
// order the Graph builds once next to its transpose (4 bytes a vertex,
// freed with the Graph). A row of degree 2 to 16 draws with a fixed trip
// count and selects its entry by counting the prefix sums below the draw
// instead of stopping at the first one above it, which removes the
// mispredicted loop exit; longer rows, graphs with edge values and
// unscaled draws keep the early-exit walk. Each row draws from its own
// RNG stream, so the order changes no choice; FuzzSampleGrouped in
// internal/core holds the counting draw to the walk row by row.
//
// Determinism contract, for a fixed seed (Spec.Seed, where 0 means 1, or
// UndirectedGraph.Match's seed argument): every Algorithm except
// AlgKarpSipserParallel, and UndirectedGraph.Match, returns the same
// matching (mates, not only size) and the same scaling vectors at every
// worker count, scheduling policy and pool width. The heuristics sample
// in parallel, each vertex from its own RNG stream, and settle every
// conflict on the calling goroutine as the paper's kernels would on one
// worker in index order: OneSided's rows claim their columns in index
// order, so the largest row that chose a column keeps it, and TwoSided
// runs the single-worker Karp–Sipser kernel below. AlgKarpSipserParallel,
// the Azad et al. baseline, keeps its compare-and-swap claims, so its
// pairing depends on the schedule. No heuristic has a data race at any
// width. TestTwoSidedDeterministicAcrossPoolsAndWorkers,
// TestSamplingWithTotalsBitIdentical, TestOneSidedSizeStableAcrossPools,
// TestOneSidedMatchesReference and TestKarpSipserInPlaceOfflineFamilies
// in internal/core, TestWorkersProduceIdenticalScaling in internal/scale,
// TestMatchSizeDeterministicAcrossWorkers in internal/undirected, and
// TestSpecRunsItsKernel, TestSpecGraftBitIdenticalAcrossWidths and
// TestUndirectedAPI here gate it; CI runs them under the race detector
// at GOMAXPROCS 1, 2 and 4.
//
// TwoSided's Karp–Sipser is Algorithm 4 on the calling goroutine, after
// the sampling region: plain loads and stores instead of atomics, one
// count word per vertex (its residual degree and whether any vertex chose
// it) instead of a mark and a degree array, and vertex loops without
// data-dependent branches. It writes the row/column matching in place, as
// OneSided's claim pass does: both heuristics keep their result in one
// session buffer of one mate per vertex, RowMate then ColMate, so a
// matching needs no decoding and a one-shot TwoSided allocates 12 bytes a
// vertex, OneSided 4, on a Graph that already holds its scaling. The
// kernel consumes the same vertices in the same order as the atomic
// kernel run in index order on one goroutine, so its matchings are that
// kernel's, bit for bit; TestKarpSipserWidth1SampledChoiceGraphs,
// TestKarpSipserWidth1HandBuilt, TestKarpSipserInPlaceOfflineFamilies and
// FuzzKarpSipserWidth1 in internal/core hold it to that reference,
// TestSessionWidth1CancelMidKarpSipser checks that it polls the
// cancellation hook every chunk (512 vertices by default), and
// TestOneShotHeuristicBytes here bounds what a one-shot call allocates.
// The atomic kernel stays in internal/core for the paper's Fig. 4a and
// Table 3; no call in this package runs it.
//
// # The Spec engine
//
// Every matching request in the library is one declarative value, Spec:
// which Algorithm to run (TwoSided, OneSided, the Karp–Sipser variants,
// the cheap baselines), under which Seed, whether to run a best-of-K
// Ensemble of seeds, whether to Refine the heuristic result toward a
// maximum matching, and an optional early-stop Target. One engine —
// Matcher.Run — executes Specs; it is the only code path in the package
// that dispatches matching kernels. Everything else is a surface over it:
//
//   - Graph.Match(spec, opt) runs one Spec on a throwaway session.
//   - Matcher.Run(spec) runs Specs on a warm session (resident
//     workspaces).
//   - Request.Spec carries Specs through Server.Match and
//     Server.MatchBatch.
//   - cmd/matchserve accepts the spec fields ("algorithm", "seed",
//     "refine", "best_of", "target") on /match and
//     /match/batch, and reports the result's provenance ("winner_seed",
//     "candidates_run", "heuristic_size", "refined") in every response.
//
// Every Algorithm is requested through a Spec; TestSpecRunsItsKernel
// checks that each cardinality Algorithm runs its own kernel, bit for bit
// against that kernel called directly. Scaling-only workflows call
// Matcher.Scale.
//
// Ensemble: K consumes K candidate seeds strictly in seed order over ONE
// shared scaling and keeps the largest matching, ties broken toward the
// smallest seed. On a session wider than one worker the candidates fan
// out across the pool — each candidate runs at width 1 on a per-worker
// arena — which makes the whole ensemble deterministic at any pool width
// and bit-identical to the serial sweep a Workers: 1 session runs on its
// own arena (TestSpecEnsembleParallelBitIdentical, which CI's
// spec-conformance step runs under the race detector at GOMAXPROCS 1, 2
// and 4). Target stops the sweep as soon as the best candidate reaches
// Target·SprankUpperBound().
//
// Refine: RefineExact is the paper's central application (§4): the
// heuristic matching jump-starts an exact augmenting-path engine, which
// only pays for the vertices the heuristic left free, and a refined single
// run always satisfies size == Sprank(). Three engines share that
// contract. Hopcroft–Karp is the sequential reference. RefinePushRelabel
// is the push-relabel/auction scheme of the GPU and multicore
// maximum-transversal codes the paper cites. RefineGraft is the parallel
// engine — a multi-source BFS with tree grafting in the style of Azad et
// al.'s MS-BFS-Graft, which grows one alternating forest per exposed row
// across the Matcher's pool and commits augmenting paths in a fixed
// deterministic order, so from a given warm start its result is
// bit-identical at every pool width (TestGraftBitIdenticalAcrossWidths in
// internal/exact and TestSpecGraftBitIdenticalAcrossWidths, which CI's
// graft and spec-conformance steps run under the race detector at
// GOMAXPROCS 1, 2 and 4). RefineExact auto-selects the graft engine on
// large instances (where refinement dominates end-to-end time) and
// MatchResult.RefinedWith reports the engine that actually ran. Every
// engine searches from the side with fewer non-isolated vertices, picked
// once per Graph: a Graph with fewer non-isolated columns than rows is
// refined on its transpose from the mirrored warm start, and the result
// comes back in row orientation; ties keep the row search. A maximum
// matching leaves rows−sprank non-isolated rows and cols−sprank columns
// free, and a search pays again and again for those doomed roots on its
// own side, so the smaller side is the cheaper one. The side changes
// which maximum matching comes back, never its size
// (TestSpecRefineSearchSide).
// Graph.MaximumMatching(init) runs that same engine choice and refinement
// loop outside a Spec, completing any warm start (nil for a cold solve). Inside an
// ensemble the refinement is ensemble-aware: it advances incrementally
// (one engine phase, or one push-relabel bid budget, per consumed
// candidate), warm-starts from the best heuristic so far, and stops the
// ensemble the moment the refined size reaches the Target or structural
// sprank bound — jump-start workloads stop paying for candidates the
// refinement has already made redundant:
//
//	res, _ := g.Match(bipartite.Spec{
//		Algorithm: bipartite.AlgTwoSided,
//		Ensemble:  8,           // seeds 1..8, one scaling, pool-parallel
//		Target:    0.95,        // stop early once 0.95·sprank-bound is met
//		Refine:    bipartite.RefineExact, // augment incrementally
//	}, nil)
//	// res.WinnerSeed, res.Candidates, res.HeuristicSize and res.Refined
//	// report how the ensemble unfolded; with no Target the refined size
//	// is exactly g.Sprank().
//
// # Weighted matching
//
// Graphs can carry strictly positive, finite edge weights —
// NewWeightedGraph and FromWeightedEdges attach them at construction,
// ReadMatrixMarket keeps the values of real/integer files, and
// RandomWeights decorates any pattern with a seeded synthetic assignment
// (uniform or heavy-tailed). Spec{Algorithm: AlgAuction} then maximizes
// matched WEIGHT instead of cardinality, via an ε-scaling auction
// (Bertsekas' algorithm, parallel Jacobi bidding rounds with serial
// reconciliation) with an explicit approximation contract:
//
//	res, _ := g.Match(bipartite.Spec{
//		Algorithm: bipartite.AlgAuction,
//		Epsilon:   0.05, // 0 = DefaultEpsilon
//	}, nil)
//	// res.MatchedWeight ≥ (1−ε)·optimal matched weight, always.
//	// res.MatchedWeight/res.DualBound certifies this run's true ratio.
//
// Spec.Epsilon in (0,1) trades quality for speed: the final bidding phase
// runs at absolute slack ε·Wmax/min(n,m), so the matched weight is within
// (1−ε) of optimal; smaller ε means more bidding rounds. Every result
// also reports DualBound, the value Σp + Σr of a feasible LP dual built
// from the final prices — an upper bound on the optimum, tight to within
// |M|·ε_abs of the achieved weight — so MatchedWeight/DualBound is a
// per-run quality certificate at any instance size, no exact solve
// needed. Provenance (MatchedWeight, Epsilon, Rounds, DualBound) flows
// through a Server's Responses and cmd/matchserve's "matched_weight",
// "epsilon" and "rounds" JSON fields. Pattern graphs degrade gracefully:
// every edge weighs 1.0 and the auction maximizes cardinality.
//
// The auction composes with the Spec machinery it shares with the
// cardinality algorithms. Ensemble: K runs a best-of-K sweep over bidding
// seeds — the coarse ε-scaling phases run ONCE into a shared price warm
// start, each candidate finishes from a clone of it with its own seeded
// tie-breaking, and the heaviest matching wins (ties toward the smallest
// seed). Candidates fan out across the session pool at width 1 each, so
// the winner is bit-identical at any pool width — the same determinism
// contract as the cardinality ensembles, gated by
// TestAuctionEnsembleDeterminismWidths and internal/auction's
// TestAuctionDeterminismWidths, which CI's auction step runs under the
// race detector at GOMAXPROCS 1, 2 and 4. Refine and Target are rejected
// by Validate:
// they speak cardinality, not weight. Dynamic sessions extend to weighted
// graphs too: a DynSession opened with AlgAuction maintains the weighted
// matching under ApplyWeighted batches (weighted inserts, deletions,
// weight updates) by re-normalizing prices around what the batch
// disturbed and re-auctioning only the freed rows, preserving the (1−ε)
// bound at the session's creation-time slack after every batch.
//
// # Sessions and serving
//
// Graph.Match runs its Spec on a throwaway Matcher, a reusable session
// bound to one graph. The scaling is the Graph's own, so only the first
// call on a graph scales it, through whichever entry point it comes. A
// Matcher adds preallocated workspaces for every pipeline stage, so
// repeated Runs on the same graph — seed sweeps, jump-start ensembles,
// servers — run the kernels with near-zero allocations, bit-identical to
// Graph.Match:
//
//	m := g.NewMatcher(&bipartite.Options{ScalingIterations: 5})
//	for seed := uint64(1); seed <= 100; seed++ {
//		res, _ := m.Run(bipartite.Spec{Seed: seed}) // one scaling, no reallocation
//		consume(res.Matching)                       // valid until the next call on m
//	}
//	m.Reset(next)                                       // rebind, reusing the buffers
//
// Prefer a Matcher over Graph.Match whenever the same graph (or a stream
// of same-shaped graphs) is matched more than once. Results alias the
// session and must be copied if retained across calls; refined results
// are no exception, since they live on the session's refinement
// workspace.
//
// # Dynamic sessions
//
// A DynSession is the online form of a Matcher: a mutable graph session
// that absorbs batched edge mutations and maintains its matching
// incrementally instead of recomputing it. Open one with
// Graph.NewDynSession(spec, opt) — the Spec runs once to establish the
// initial matching, on the Graph's own scaling, so opening a session on a
// graph that was already matched at the same iteration count scales
// nothing — then feed it Apply(inserts, deletes) batches:
//
//	sess, _ := g.NewDynSession(bipartite.Spec{Refine: bipartite.RefineExact}, nil)
//	res, _ := sess.Apply([][2]int{{3, 7}}, [][2]int{{0, 0}})
//	// res.Freed, res.Augments, res.MaintainedSize report
//	// how the repair unfolded; sess.Size() == sess.Snapshot().Sprank().
//
// A batch is atomic: deletions apply before insertions, and a batch
// naming an out-of-range vertex is rejected whole with
// ErrInvalidMutation, leaving the session untouched. Repair is targeted
// at what the batch disturbed — a deleted matched edge un-matches its
// pair and re-augments from the freed endpoints; an inserted edge
// augments only when it touches an exposed vertex. Sessions whose Spec
// carries a refinement stay exact: the repair completes with
// warm-started augmenting-path phases, so the maintained size equals the
// mutated graph's sprank after every batch (the differential fuzz suite
// gates this over adversarial mutation traces). Heuristic sessions
// (Refine: None) stop at the targeted repair and keep the heuristic's
// quality profile. Only the initial run samples, so only it scales; the
// repairs augment over the mutable adjacency and touch no scaling.
//
// The determinism contract is strict: every internal kernel runs at
// parallel width 1, so the maintained matching is a pure function of
// (initial graph, Spec, mutation trace) — bit-identical whatever pool or
// worker settings the Options carry.
// TestDynFuzzDifferential compares pool widths 1, 2 and 4 after every
// batch of its mutation traces, and TestAuctionDynDeterminismWidths does
// the same for weighted sessions; CI's dyn and auction steps run them
// under the race detector at GOMAXPROCS 1, 2 and 4.
//
// Snapshot() bridges back to the immutable world: it returns a cached
// *Graph of the current adjacency, rebuilt only after a batch that
// actually changed the graph. Matching-neutral batches return the
// identical pointer, with its scaling still warm. That identity is the
// coherence signal serving layers use — cmd/matchserve serves reads from
// the current snapshot and calls Server.DropGraph on the old one exactly
// when PATCH swaps in a new one; the old snapshot's scaling goes with it.
//
// For many small independent requests, a Server executes each batch of its
// queue as one pool-wide parallel region — one dispatch for N requests,
// one warm Matcher arena per worker slot, each request served sequentially
// so its response is a deterministic function of (Graph, Spec) alone. Its
// long-lived collector loop drains concurrent submitters (Server.Match) or
// a whole slice (Server.MatchBatch) into batches, the arenas stay warm
// across batches, and cmd/matchserve exposes it over HTTP/JSON. A Response
// is the run's MatchResult, with a caller-owned Matching, plus its error.
// See examples/server for the tiers side by side.
//
// # Serving contract
//
// The batch layer is production-shaped, and its guarantees are explicit:
//
//   - Back-pressure: a Server's admission queue is bounded
//     (ServerConfig.Queue). A submission that finds it full fails fast
//     with ErrOverloaded — no unbounded backlog, no blocking submitters,
//     no goroutine per request. Rejections are counted in
//     ServerStats.Rejected.
//   - Deadlines: Request.Ctx carries per-request cancellation. An
//     already-expired context is answered with its error before any
//     kernel runs; one that expires mid-run aborts the scaling (the
//     Graph's shared scaling below included), sampling and Karp–Sipser
//     stages at their next cooperative checkpoint (a scaling sweep or a
//     chunk) and the response carries ctx.Err(). One wait is not
//     interruptible: a request parked on another width-1 caller's
//     computation of the same cold scaling waits for it (the computing
//     caller's own deadline bounds that wait). Refinement polls the
//     deadline between Hopcroft–Karp and graft phases and between
//     push-relabel steps, so a refinement past its deadline frees its
//     slot within one unit of work (TestServerRefinementStopsAtDeadline).
//     A nil Ctx never cancels.
//   - Shared scaling: each *Graph holds one scaling cell per iteration
//     count, shared by all W batch slots, every one-shot call and every
//     dynamic session on the graph — one scaling per graph, not one per
//     slot or call — and the engine recycles per-slot arenas by graph
//     shape under heterogeneous traffic. Scalings are seed-independent
//     and width-independent, so sharing is invisible in the responses;
//     ensemble requests reuse the same cell for every candidate. The
//     batch slots compute at width 1, inline, so they compute under the
//     cell's lock and share one run. A full-width caller dispatches its
//     sweeps to a pool and never holds or waits on that lock (a pool's
//     steal-back wait could otherwise run a slot that waits on the very
//     lock); it computes alongside and the first result published is
//     kept. The scaling lives and dies with its Graph, so dropping a
//     graph from a registry frees it; Server.DropGraph forgets the
//     graph's service-time estimates.
//   - Retryable cold scaling: a cancellation that lands while a request
//     is computing a cold graph's scaling does not poison the graph. The
//     canceled request is answered with its context error and the compute
//     publishes nothing — the next request on the graph computes the
//     scaling under its own deadline (still exactly one scaling run on a
//     successful retry).
//   - Determinism unchanged: every response remains a function of
//     (Graph, Spec, Options) only — bit-identical to the one-shot call
//     (for AlgKarpSipserParallel, the one-shot call at Workers: 1) —
//     however requests are batched, canceled neighbors included. When self-protection rewrites a Spec (below),
//     the response is that same deterministic function of the rewritten
//     Spec, and the rewrite is stamped in the response.
//
// # Self-protection
//
// A Server can watch its own process and protect its latency instead of
// degrading arbitrarily under overload. ServerConfig.Watchdog (CPU/RSS
// limits, sampling interval) starts a watchdog that samples the process's
// CPU fraction and resident set and drives a four-level shedding ladder —
// nominal, degraded, shedding, critical — with hysteresis: levels rise
// immediately when utilization crosses a threshold and decay one step per
// settle period of calm samples, so the server does not flap at a
// boundary. Server.Health exposes the current level and readings.
//
// Admission is priority-aware. Request.Priority (low, normal, high) feeds
// the ladder: at shedding level, low-priority requests are refused; at
// critical, everything below high is refused. Refusals fail fast with a
// *ShedError wrapping ErrShed and carrying a RetryAfter hint (the time
// the ladder needs to decay). Optional per-client token buckets
// (ServerConfig.RatePerClient/RateBurst, keyed by Request.Client) answer
// the greedy client with *RateLimitError/ErrRateLimited and its own
// RetryAfter, before shedding has to punish everyone.
//
// Deadlines are checked against reality at admission: the engine keeps a
// per-(graph, Spec-class) EWMA of observed service times, and a request
// whose remaining context budget cannot cover the estimated queue wait
// plus service time is refused immediately with *WouldMissError wrapping
// ErrWouldMiss — the caller gets its rejection while the deadline is
// still useful, instead of a 504 after burning a slot.
//
// Between serving everything and refusing, the engine degrades: from the
// degraded level upward, admitted Specs are rewritten to their cheaper
// shape — exact refinement is dropped first, then ensemble fan-out is
// capped (K ≤ 2 when degraded, 1 when shedding). A degraded matching
// still carries the paper's heuristic guarantee — OneSided ≥ (1−1/e)·
// sprank, TwoSided ≈ 0.866·sprank in the mean — it only loses what the
// full Spec would have added. Every rewrite is stamped into the
// Response's MatchResult.Degraded (e.g.
// "refine:exact->none,best_of:8->2"), so provenance survives end to end:
// cmd/matchserve forwards it as the "degraded" response field, and
// ServerStats counts shed, rate-limited, would-miss and degraded
// requests.
//
// Callers that batch without HTTP get the same protection from
// Server.MatchBatch, which puts every request of the batch through the
// admission and degradation ladders above.
//
// # Cluster serving
//
// Above the single process, the serving stack scales out to a fleet:
// internal/ring is a bounded-load consistent-hash ring (64-bit hashed
// virtual nodes, per-node capacity ⌈factor·K/N⌉, deterministic
// placement and minimal rebalancing — a membership change moves only the
// keys whose arc changed hands), internal/cluster is the routing SDK and
// HTTP front end over it, and cmd/matchrouter is the deployable router
// binary. Registered graphs shard across matchserve replicas by id;
// /match, /match/batch and PATCH traffic routes to the owner; membership
// follows the replicas' /healthz (active probes plus passive mark-down
// on transport failure), and graphs migrate to their new owners lazily —
// exported from a live holder, or replayed from the retained
// registration when the sole holder died.
//
// Replicas and router share one match-response codec, internal/wire: the
// replicas stream their answers with it, and the router decodes them
// (parsing row_mate in place, with encoding/json as the fallback for any
// body outside the encoder's layout) and relays them with it. A relayed
// answer is the replica's response shape with "replica" appended, byte
// for byte what encoding/json writes for the same value.
//
// The router absorbs the serving contract's failure surface on the
// client's behalf: 503/429 rejections are retried with exponential
// backoff plus jitter, floored at the replica's own Retry-After hint;
// slow single matches are hedged against a second holder after a
// p99-derived delay (safe because a response is a pure function of
// (graph, Spec)); and a replica death mid-batch re-drives only that
// replica's sub-batch on the survivors — the chaos suite gates that a
// kill with a batch in flight yields zero failed client requests.
//
// Determinism is what makes the fleet transparent. A best-of-K ensemble
// fans out across replicas as disjoint seed sub-ranges
// (Spec.SeedOffset/SeedCount — sub-range candidate seeds stay absolute,
// so candidate c runs identically wherever it runs), each replica sweeps
// its slice against its own shared scaling, and the router reduces the
// sub-range winners in offset order under the same
// strict-improvement/smallest-seed rule the library uses internally. The
// reduced winner — mates, winner seed, provenance, matched weight for
// the auction — is bit-identical to one process running the full sweep,
// for the cardinality heuristics and the auction alike
// (TestClusterFanOutBitIdentity and TestClusterFanOutBitIdentityAuction,
// which CI's cluster fleet step runs under the race detector at
// GOMAXPROCS 1, 2 and 4).
//
// The quality guarantees themselves are enforced by the statistical test
// suite (quality_test.go): OneSided ≥ (1−1/e)·sprank and TwoSided ≥
// 0.86·sprank in the mean over seed sweeps, and exactness of Karp–Sipser
// on degree-≤2 families.
package bipartite
