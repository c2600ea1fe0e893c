package bipartite

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/par"
	"repro/internal/watchdog"
)

// Request is one matching request of a batch: which graph to match, under
// which declarative Spec (the same request type Matcher.Run, Graph.Match
// and the cmd/matchserve wire format execute).
type Request struct {
	Graph *Graph
	// Spec is the declarative matching request: algorithm, seed (0 means
	// the batch Options' seed), best-of-K ensemble, refinement, target.
	Spec Spec
	// Ctx, when non-nil, carries the request's deadline and cancellation:
	// an already-expired context is answered with its error before any
	// kernel runs, and a context that expires mid-run aborts the scaling,
	// sampling and Karp–Sipser kernels at their next cooperative
	// checkpoint (chunk granularity) — the response then carries
	// ctx.Err(). A deadline expiring while this request computes a cold
	// graph's scaling aborts that scaling too, and publishes nothing on the
	// Graph: the graph's next request computes it afresh (see the package
	// serving contract). A nil Ctx never cancels, exactly the pre-deadline
	// behaviour.
	Ctx context.Context
	// Priority ranks the request for admission when a Server's watchdog
	// reports the process hot: PriorityLow is shed first, PriorityHigh
	// last. The zero value is PriorityNormal. Ignored by the package-level
	// MatchBatch, which has no admission stage; Server.MatchBatch honors it.
	Priority Priority
	// Client identifies the submitter for the Server's per-client rate
	// limiting; the empty string bypasses the limiter (callers that want
	// fairness must name their clients — cmd/matchserve uses the X-Client
	// header, falling back to the connection's remote address).
	Client string
}

// Response is the outcome of one batched request. The Matching is owned
// by the caller (copied out of the serving workspaces), so it stays valid
// after the next batch. The provenance fields mirror MatchResult's: how
// the Spec's ensemble unfolded and what refinement added — cmd/matchserve
// forwards them onto the wire.
type Response struct {
	Matching *Matching
	// WinnerSeed is the seed of the candidate that produced Matching
	// (for refined ensembles, the refinement's warm-start candidate); for
	// single runs, the resolved base seed.
	WinnerSeed uint64
	// Candidates is the number of ensemble members actually consumed — 1
	// for single runs, possibly fewer than Spec.Ensemble when a target or
	// the refinement stopped the sweep early.
	Candidates int
	// HeuristicSize is the winning candidate's cardinality before
	// refinement.
	HeuristicSize int
	// Refined reports whether a refinement stage ran (Spec.Refine was not
	// RefineNone).
	Refined bool
	// RefinedWith is the refinement engine that actually ran (RefineExact
	// auto-selects the graft engine on large instances); RefineNone when no
	// refinement ran.
	RefinedWith Refinement
	// Degraded, when non-empty, records the self-protection downgrades
	// the engine applied before running the Spec (e.g.
	// "refine:exact->none,best_of:8->2"): the response was computed under
	// load shedding and carries the heuristic's quality bound instead of
	// whatever the full Spec guaranteed. Empty means the Spec ran exactly
	// as requested.
	Degraded string
	// MatchedWeight, Epsilon and Rounds are the AlgAuction provenance
	// (see the MatchResult fields of the same names); zero for the
	// cardinality algorithms.
	MatchedWeight float64
	Epsilon       float64
	Rounds        int
	Err           error
}

// ErrNilGraph reports a batched request without a graph.
var ErrNilGraph = errors.New("bipartite: request has nil Graph")

// MatchBatch executes many matching requests as one pool-wide parallel
// region: a single dispatch hands the request queue to the pool's worker
// slots, and each slot serves requests sequentially on its own resident
// Matcher arena. Every response is deterministic — a function of (Graph,
// Spec, opt) only, regardless of batch composition, pool width or
// scheduling, and identical to the one-shot call (the package determinism
// contract; for AlgKarpSipserParallel, which runs at width 1 here, the
// one-shot call with Workers: 1). Requests that share a *Graph share its
// one scaling across all slots, and with every other caller on the Graph
// (the scaling is bit-identical at any width, so sharing does not perturb
// responses). Per-request deadlines ride on Request.Ctx.
//
// opt configures scaling and the pool exactly as for one-shot calls;
// opt.Workers caps the number of slots (<= 0 means the pool width).
// The returned slice maps one-to-one onto reqs.
//
// For a long-lived serving loop that keeps its arenas warm across batches,
// use Server instead.
func MatchBatch(reqs []Request, opt *Options) []Response {
	out := make([]Response, len(reqs))
	newBatchEngine(opt).run(reqs, out)
	return out
}

// slotArenaCap bounds how many shape-keyed Matcher arenas one slot
// retains; the least recently used arena is recycled when heterogeneous
// traffic brings more shapes than that.
const slotArenaCap = 4

// slotArena is one shape-keyed entry of an arena cache.
type slotArena struct {
	rows, cols int
	last       uint64 // cache-local LRU tick
	m          *Matcher
}

// arenaCache is a shape-keyed cache of width-1 Matcher arenas with LRU
// recycling, shared by the batch engine's slots and a Matcher's parallel
// ensemble workers: a stream of same-shaped graphs rebinds one arena
// allocation-free, while heterogeneous traffic keeps up to slotArenaCap
// differently-sized arenas warm instead of thrashing one arena's buffers
// between shapes. A cache is touched only by the worker slot that owns it,
// so it needs no locking.
type arenaCache struct {
	tick   uint64
	arenas []*slotArena
}

// get returns the cache's Matcher for graph g under opt (the slot's
// width-1 options), building, rebinding or recycling an arena as the
// shape mix demands.
func (s *arenaCache) get(g *Graph, opt Options) *Matcher {
	s.tick++
	var lru *slotArena
	for _, a := range s.arenas {
		if a.rows == g.Rows() && a.cols == g.Cols() {
			a.last = s.tick
			if a.m.Graph() != g {
				a.m.Reset(g)
			}
			return a.m
		}
		if lru == nil || a.last < lru.last {
			lru = a
		}
	}
	m := g.NewMatcher(&opt)
	entry := &slotArena{rows: g.Rows(), cols: g.Cols(), last: s.tick, m: m}
	if len(s.arenas) < slotArenaCap {
		s.arenas = append(s.arenas, entry)
	} else {
		*lru = *entry
	}
	return m
}

// batchEngine is the shared executor of MatchBatch and Server: per-slot
// shape-keyed Matcher arenas plus the one prebuilt pool-wide body that
// drains a request queue. An engine's run calls must not overlap; Server
// guarantees that with its single collector goroutine.
type batchEngine struct {
	opt     Options // normalized; per-slot matchers run width-1
	slotOpt Options // opt with Workers: 1, Pool: nil — what the arenas run
	pool    *par.Pool
	width   int
	slots   []arenaCache

	// shed, when non-nil, reports the owning Server's watchdog level before
	// each request runs; serve downgrades the Spec per the degradation
	// ladder (degradeSpec) and stamps the marker into the response. nil —
	// every MatchBatch engine and every Server without a watchdog — means
	// full service, bit-for-bit the pre-watchdog behaviour.
	shed func() watchdog.Level
	// svc, when non-nil, accumulates per-class service-time EWMAs for the
	// Server's would-miss admission check.
	svc      *svcStats
	degraded atomic.Int64

	next atomic.Int64
	reqs []Request
	out  []Response
	body func(w int)
}

func newBatchEngine(opt *Options) *batchEngine {
	v := opt.normalized()
	e := &batchEngine{opt: v, svc: newSvcStats()}
	e.slotOpt = v
	e.slotOpt.Workers = 1
	e.slotOpt.Pool = nil // width-1 sessions run inline; no pool needed
	e.pool, e.width = v.width()
	e.slots = make([]arenaCache, e.width)
	e.body = func(w int) {
		for {
			i := int(e.next.Add(1)) - 1
			if i >= len(e.reqs) {
				return
			}
			e.serve(w, i)
		}
	}
	return e
}

// arena returns slot w's Matcher for graph g from the slot's shape-keyed
// cache; see arenaCache.
func (e *batchEngine) arena(w int, g *Graph) *Matcher {
	return e.slots[w].get(g, e.slotOpt)
}

// run executes reqs into out (same length) as one pool-wide region.
func (e *batchEngine) run(reqs []Request, out []Response) {
	if len(reqs) == 0 {
		return
	}
	e.reqs, e.out = reqs, out
	e.next.Store(0)
	width := e.width
	if width > len(reqs) {
		width = len(reqs)
	}
	e.pool.Do(width, e.body)
	e.reqs, e.out = nil, nil
}

// serve runs request i on slot w's arena: the Spec is validated first,
// then downgraded per the watchdog's shedding level (the degradation
// ladder trades the sprank guarantee for the heuristic bound before any
// work is refused), an expired context is answered before any kernel runs,
// a live one is armed as the arena's cancellation hook, and the Spec
// engine does the rest, taking the scaling from the Graph's cell.
// Completed requests feed the service-time EWMAs behind the Server's
// would-miss admission check.
func (e *batchEngine) serve(w, i int) {
	req := e.reqs[i]
	if req.Graph == nil {
		e.out[i] = Response{Err: ErrNilGraph}
		return
	}
	spec := req.Spec
	if err := spec.Validate(); err != nil {
		e.out[i] = Response{Err: err}
		return
	}
	var degraded string
	if e.shed != nil {
		if lvl := e.shed(); lvl >= watchdog.Degraded {
			spec, degraded = degradeSpec(spec, lvl)
			if degraded != "" {
				e.degraded.Add(1)
			}
		}
	}
	ctx := req.Ctx
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			e.out[i] = Response{Err: err}
			return
		}
	}
	start := time.Now()
	a := e.arena(w, req.Graph)
	if ctx != nil {
		a.setCancel(func() bool { return ctx.Err() != nil })
		defer a.setCancel(nil)
	}
	res, err := a.Run(spec)
	if ctx != nil {
		// A context that expired mid-run trumps whatever the kernels
		// managed to produce: the caller's deadline has passed and the
		// sentinel errors above all trace back to it.
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
	}
	if err != nil {
		e.out[i] = Response{Err: err}
		return
	}
	// The EWMA records the Spec that actually ran (the degraded one, when
	// shedding): it estimates what the engine will spend, not what callers
	// ask for.
	if e.svc != nil {
		e.svc.record(req.Graph, spec, time.Since(start))
	}
	res.Degraded = degraded
	// Copy out of the arena: the response must survive the slot's next
	// request. The provenance rides along so the serving layers can put
	// it on the wire.
	e.out[i] = Response{
		Matching:      cloneMatching(res.Matching),
		WinnerSeed:    res.WinnerSeed,
		Candidates:    res.Candidates,
		HeuristicSize: res.HeuristicSize,
		Refined:       res.Refined,
		RefinedWith:   res.RefinedWith,
		Degraded:      degraded,
		MatchedWeight: res.MatchedWeight,
		Epsilon:       res.Epsilon,
		Rounds:        res.Rounds,
	}
}

func cloneMatching(mt *Matching) *Matching {
	return &Matching{
		RowMate: append([]int32(nil), mt.RowMate...),
		ColMate: append([]int32(nil), mt.ColMate...),
		Size:    mt.Size,
	}
}
