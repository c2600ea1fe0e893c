package bipartite

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/watchdog"
)

// ErrOverloaded reports a request rejected at admission because the
// server's bounded queue was full. It is the back-pressure signal:
// callers shed load, retry with backoff, or surface 503s — they never
// block behind an unbounded backlog. A rejected request consumed no
// kernel work and holds no server resources.
var ErrOverloaded = errors.New("bipartite: server overloaded (admission queue full)")

// ErrServerClosed reports a request submitted after Close.
var ErrServerClosed = errors.New("bipartite: server closed")

// Server is a long-lived batching front end for matching requests, the
// serving-loop shape of MatchBatch: callers submit requests from any
// number of goroutines, a collector drains the queue into batches, and
// each batch executes as one pool-wide parallel region on per-slot Matcher
// arenas that stay warm across batches. Under load, many requests ride one
// dispatch and reuse hot workspaces (and each graph's one scaling), so the
// per-request overhead approaches the cost of the kernels themselves; an
// idle server serves a lone request with one dispatch of latency and no
// batching delay — the collector never waits for a batch to fill.
//
// Admission is bounded: at most Queue requests wait at any moment, and a
// submission that finds the queue full fails fast with ErrOverloaded
// instead of blocking. Per-request deadlines ride on Request.Ctx — an
// expired context is answered without running kernels, and one that
// expires mid-run aborts them at the next cooperative checkpoint.
//
// Responses are those of MatchBatch: a function of (Graph, Spec, Options)
// only — ensemble provenance included — however requests are interleaved
// or batched.
//
// A server with ServerConfig.Watchdog enabled additionally protects
// itself: a sampler of the process's own CPU and RSS drives a shedding
// ladder that first degrades Specs (dropping exact refinement and capping
// ensembles — every answer still carries the paper's heuristic quality
// bound), then sheds PriorityLow and finally everything below
// PriorityHigh, each rejection typed and carrying a Retry-After hint.
// Degraded responses stamp what was given up into Response.Degraded, so
// determinism weakens only in an observable way: responses become a
// function of (Graph, Spec, Options, shedding level), and the level rode
// along with the answer. Per-client rate limits (RatePerClient) and the
// queue-aware would-miss check extend the same admission ladder.
type Server struct {
	engine   *batchEngine
	maxBatch int
	jobs     chan serverJob

	// wd is the self-protection watchdog (nil when WatchdogConfig is not
	// Enabled); limiter is the per-client token bucket (nil when
	// RatePerClient is 0). Both nil = exactly the pre-protection server.
	wd      *watchdog.Watchdog
	limiter *watchdog.RateLimiter

	wg sync.WaitGroup
	// mu gates the jobs channel's lifecycle: submitters hold the read
	// side across their (non-blocking) send, Close flips closed under the
	// write side before closing the channel — so a send can never race
	// the close, by construction rather than by caller discipline.
	mu        sync.RWMutex
	closed    bool
	closeOnce sync.Once

	requests    atomic.Int64
	batches     atomic.Int64
	rejected    atomic.Int64
	shed        atomic.Int64
	wouldMiss   atomic.Int64
	rateLimited atomic.Int64

	// testHookBatch, when non-nil, runs on the collector goroutine before
	// each batch executes — the test seam that stalls the collector to
	// fill the admission queue deterministically.
	testHookBatch func(batch int)
}

type serverJob struct {
	req Request
	out chan Response
}

// ServerConfig sizes a Server's batching and admission behaviour.
type ServerConfig struct {
	// MaxBatch bounds how many queued requests one batch may drain;
	// <= 0 means 256.
	MaxBatch int
	// Queue is the admission queue depth: the maximum number of requests
	// waiting to be drained into a batch. Submissions beyond it fail with
	// ErrOverloaded. <= 0 means 4×MaxBatch.
	Queue int
	// Watchdog enables the self-protection layer: when Enabled, a sampler
	// of the process's own CPU and RSS drives priority shedding and Spec
	// degradation (see WatchdogConfig). The zero value keeps protection
	// off — the server behaves exactly as before.
	Watchdog WatchdogConfig
	// RatePerClient, when > 0, enables per-client token-bucket admission:
	// each distinct Request.Client earns this many tokens per second.
	// Requests with an empty Client bypass the limiter.
	RatePerClient float64
	// RateBurst is the per-client bucket ceiling; <= 0 means
	// max(2×RatePerClient, 1).
	RateBurst int
}

// NewServerConfig starts a serving loop with the given options (nil
// follows the one-shot defaults) and batch and admission sizing; see
// ServerConfig.
func NewServerConfig(opt *Options, cfg ServerConfig) *Server {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 4 * cfg.MaxBatch
	}
	s := &Server{
		engine:   newBatchEngine(opt),
		maxBatch: cfg.MaxBatch,
		jobs:     make(chan serverJob, cfg.Queue),
	}
	if cfg.Watchdog.Enabled() {
		s.wd = cfg.Watchdog.build()
		s.engine.shed = s.wd.Level
		s.wd.Start()
	}
	if cfg.RatePerClient > 0 {
		s.limiter = watchdog.NewRateLimiter(cfg.RatePerClient, cfg.RateBurst, cfg.Watchdog.Now)
	}
	s.wg.Add(1)
	go s.loop()
	return s
}

// Match submits one request and blocks until its response is ready (or
// the request's context expires, whichever comes first). If the admission
// queue is full the request is rejected immediately with ErrOverloaded.
// Safe for concurrent use, including with Close: a submission that races
// or follows Close fails with ErrServerClosed.
func (s *Server) Match(req Request) Response {
	out := make(chan Response, 1)
	if resp, admitted := s.submit(req, out); !admitted {
		return resp
	}
	if req.Ctx != nil {
		// The buffered out channel lets the collector reply to an
		// abandoned request without blocking; the early return only
		// abandons the wait, never the slot.
		select {
		case resp := <-out:
			return resp
		case <-req.Ctx.Done():
			return Response{Err: req.Ctx.Err()}
		}
	}
	return <-out
}

// submit tries to enqueue one request. When it fails, the returned
// Response carries the admission error and nothing was enqueued. The
// admission ladder runs cheapest-first and strictest-first: expired
// context, closed server, watchdog priority shedding, per-client rate
// limit, the queue-aware would-miss check, and finally the bounded queue
// itself. Every rejection is typed (ErrShed / ErrRateLimited /
// ErrWouldMiss / ErrOverloaded) and — where a wait helps — carries a
// Retry-After hint for the HTTP layer. The read lock is held only across
// the closed check and a non-blocking send, so it never delays other
// submitters and cannot deadlock against Close.
func (s *Server) submit(req Request, out chan Response) (Response, bool) {
	if req.Ctx != nil {
		if err := req.Ctx.Err(); err != nil {
			return Response{Err: err}, false
		}
	}
	if s.wd != nil {
		lvl := s.wd.Level()
		if (lvl >= watchdog.Shedding && req.Priority <= PriorityLow) ||
			(lvl >= watchdog.Critical && req.Priority < PriorityHigh) {
			s.shed.Add(1)
			return Response{Err: &ShedError{Level: ShedLevel(lvl), RetryAfter: s.wd.RecoveryHint()}}, false
		}
	}
	if req.Client != "" && s.limiter != nil {
		if ok, retry := s.limiter.Allow(req.Client); !ok {
			s.rateLimited.Add(1)
			return Response{Err: &RateLimitError{Client: req.Client, RetryAfter: retry}}, false
		}
	}
	if err := s.wouldMissDeadline(req); err != nil {
		s.wouldMiss.Add(1)
		return Response{Err: err}, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return Response{Err: ErrServerClosed}, false
	}
	select {
	case s.jobs <- serverJob{req: req, out: out}:
		return Response{}, true
	default:
		s.rejected.Add(1)
		return Response{Err: ErrOverloaded}, false
	}
}

// wouldMissDeadline is the queue-aware admission check: when the request
// carries a deadline and the service-time history predicts the answer
// cannot arrive before it — estimated queue wait plus the class's EWMA
// service time exceeds the remaining budget — the request is rejected now
// with a *WouldMissError, instead of burning kernel work on an answer the
// caller will have abandoned. With no history (cold server, unknown
// class before any completion) it admits: there is nothing defensible to
// reject on. nil means admit.
func (s *Server) wouldMissDeadline(req Request) error {
	if req.Ctx == nil || req.Graph == nil {
		return nil
	}
	dl, ok := req.Ctx.Deadline()
	if !ok {
		return nil
	}
	est, ok := s.engine.svc.estimate(req.Graph, req.Spec)
	if !ok {
		return nil
	}
	// Queue wait: the backlog ahead of this request drains at roughly one
	// global-mean service time per pool slot.
	var wait time.Duration
	if gm := s.engine.svc.globalMean(); gm > 0 {
		wait = gm * time.Duration(len(s.jobs)) / time.Duration(s.engine.width)
	}
	remaining := time.Until(dl)
	if total := wait + est; remaining < total {
		return &WouldMissError{Estimated: total, Remaining: remaining, RetryAfter: wait}
	}
	return nil
}

// MatchBatch submits many requests at once and blocks until all admitted
// responses are ready, returned in request order. The requests enter the
// shared queue together, so under low contention they execute as one
// batch on the warm arenas. Each request passes the same admission ladder
// as Match, and a refused one is answered in place with its typed error:
// under a watchdog, priority shedding (*ShedError) and Spec degradation
// apply per request, and requests that do not fit the admission queue get
// ErrOverloaded — size the queue at least as large as the biggest burst
// one caller submits. This is the protected form of the package-level
// MatchBatch for callers that batch without HTTP. Safe for concurrent
// use, including with Close, like Match.
func (s *Server) MatchBatch(reqs []Request) []Response {
	jobs := make([]serverJob, len(reqs))
	out := make([]Response, len(reqs))
	for i, req := range reqs {
		jobs[i] = serverJob{req: req, out: make(chan Response, 1)}
		if resp, admitted := s.submit(req, jobs[i].out); !admitted {
			jobs[i].out = nil
			out[i] = resp
		}
	}
	for i := range jobs {
		if jobs[i].out != nil {
			out[i] = <-jobs[i].out
		}
	}
	return out
}

// DropGraph forgets g's service-time classes, the per-(graph, Spec-class)
// estimates behind the would-miss admission check. Callers that own a
// graph registry in front of the Server (cmd/matchserve's LRU registry,
// for instance) call this when they evict a graph. The graph's scaling
// needs no eviction: the Graph holds it and frees it with itself. Safe for
// concurrent use with Match/MatchBatch/Close.
func (s *Server) DropGraph(g *Graph) { s.engine.svc.dropGraph(g) }

// Close drains the queue, stops the collector and waits for it to finish.
// Requests admitted before the close are still served. Idempotent, and
// safe to call while Match/MatchBatch are in flight — racing submissions
// fail with ErrServerClosed.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		// Taking the write lock waits out every in-flight send, and every
		// later submitter sees closed — only then is the channel closed.
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		close(s.jobs)
		s.wg.Wait()
		if s.wd != nil {
			s.wd.Stop()
		}
	})
}

// ServerStats is a snapshot of the server's batching and admission
// behaviour.
type ServerStats struct {
	// Requests is the number of requests served.
	Requests int64
	// Batches is the number of pool-wide regions they were served in;
	// Requests/Batches is the mean batch size, the dispatch amortization
	// factor.
	Batches int64
	// Rejected is the number of submissions refused with ErrOverloaded at
	// admission. A growing Rejected under steady traffic means the queue
	// (or the pool behind it) is undersized for the offered load.
	Rejected int64
	// Shed is the number of submissions refused by the watchdog's priority
	// shedding (ErrShed).
	Shed int64
	// WouldMiss is the number of submissions refused because their
	// deadline could not be met (ErrWouldMiss).
	WouldMiss int64
	// RateLimited is the number of submissions refused by the per-client
	// token bucket (ErrRateLimited).
	RateLimited int64
	// Degraded is the number of requests served with a downgraded Spec
	// (Response.Degraded non-empty): answered, but with the heuristic
	// quality bound instead of the full Spec's guarantee.
	Degraded int64
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Requests:    s.requests.Load(),
		Batches:     s.batches.Load(),
		Rejected:    s.rejected.Load(),
		Shed:        s.shed.Load(),
		WouldMiss:   s.wouldMiss.Load(),
		RateLimited: s.rateLimited.Load(),
		Degraded:    s.engine.degraded.Load(),
	}
}

// Health returns a snapshot of the watchdog's state: shedding level and
// the latest CPU/RSS samples. Zero-valued (Level ShedNominal) when no
// watchdog is configured — an unprotected server always reports nominal.
func (s *Server) Health() ServerHealth {
	if s.wd == nil {
		return ServerHealth{}
	}
	h := s.wd.Health()
	return ServerHealth{
		Level:       ShedLevel(h.Level),
		CPU:         h.CPU,
		RSSBytes:    h.RSS,
		Utilization: h.Utilization,
	}
}

// loop is the collector: receive one job, opportunistically drain more up
// to maxBatch without waiting, execute the batch, write the responses back
// to the per-job channels. The modelled receiver→worker→writer pipeline
// collapses into one goroutine because the worker stage is itself a
// parallel region — the pool provides the fan-out.
func (s *Server) loop() {
	defer s.wg.Done()
	jobs := make([]serverJob, 0, s.maxBatch)
	reqs := make([]Request, 0, s.maxBatch)
	out := make([]Response, s.maxBatch)
	for {
		j, ok := <-s.jobs
		if !ok {
			return
		}
		jobs = append(jobs[:0], j)
	drain:
		for len(jobs) < s.maxBatch {
			select {
			case j2, ok2 := <-s.jobs:
				if !ok2 {
					break drain
				}
				jobs = append(jobs, j2)
			default:
				break drain
			}
		}
		if s.testHookBatch != nil {
			s.testHookBatch(len(jobs))
		}
		reqs = reqs[:0]
		for _, bj := range jobs {
			reqs = append(reqs, bj.req)
		}
		batch := out[:len(jobs)]
		s.engine.run(reqs, batch)
		// Count before replying: a caller that has its response in hand
		// must see itself in Stats().
		s.requests.Add(int64(len(jobs)))
		s.batches.Add(1)
		for k, bj := range jobs {
			bj.out <- batch[k]
		}
	}
}
