package bipartite

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/par"
	"repro/internal/watchdog"
)

// Request is one matching request to a Server: which graph to match, under
// which declarative Spec (the same request type Matcher.Run, Graph.Match
// and the cmd/matchserve wire format execute).
type Request struct {
	Graph *Graph
	// Spec is the declarative matching request: algorithm, seed (0 means
	// 1), best-of-K ensemble, refinement, target.
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
	// last. The zero value is PriorityNormal.
	Priority Priority
	// Client identifies the submitter for the Server's per-client rate
	// limiting; the empty string bypasses the limiter (callers that want
	// fairness must name their clients — cmd/matchserve uses the X-Client
	// header, falling back to the connection's remote address).
	Client string
}

// Response is the outcome of one served request: the Spec engine's
// MatchResult, or the error that stopped the request. The Matching and
// KSStats are owned by the caller (copied out of the serving workspaces),
// so they stay valid after the next batch; the Scaling is the Graph's own,
// shared read-only like every MatchResult's. Degraded records any
// self-protection downgrade the Server applied; cmd/matchserve forwards the
// provenance onto the wire.
type Response struct {
	MatchResult
	Err error
}

// ErrNilGraph reports a batched request without a graph.
var ErrNilGraph = errors.New("bipartite: request has nil Graph")

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

// batchEngine is the Server's executor: per-slot shape-keyed Matcher
// arenas plus the one prebuilt pool-wide body that drains a request queue.
// An engine's run calls must not overlap; Server guarantees that with its
// single collector goroutine.
type batchEngine struct {
	opt     Options // normalized; per-slot matchers run width-1
	slotOpt Options // opt with Workers: 1, Pool: nil — what the arenas run
	pool    *par.Pool
	width   int
	slots   []arenaCache

	// shed, when non-nil, reports the owning Server's watchdog level before
	// each request runs; serve downgrades the Spec per the degradation
	// ladder (degradeSpec) and stamps the marker into the response. nil —
	// every Server without a watchdog — means full service.
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
	// Copy out of the arena: the response must survive the slot's next
	// request. The Scaling belongs to the Graph and is shared as is.
	res.Degraded = degraded
	out := Response{MatchResult: *res}
	out.Matching = cloneMatching(res.Matching)
	if res.KSStats != nil {
		st := *res.KSStats
		out.KSStats = &st
	}
	e.out[i] = out
}

func cloneMatching(mt *Matching) *Matching {
	return &Matching{
		RowMate: append([]int32(nil), mt.RowMate...),
		ColMate: append([]int32(nil), mt.ColMate...),
		Size:    mt.Size,
	}
}
