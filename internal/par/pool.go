package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent set of worker goroutines that For, Do and
// ReduceFloat64 dispatch loop bodies to. Creating goroutines and tearing
// them down on every parallel region (the classic Go idiom) costs a goroutine
// spawn plus a WaitGroup wake per worker per call; the matching heuristics
// issue dozens of parallel regions per run (scaling sweeps, sampling,
// Karp–Sipser phases), so that overhead lands squarely on the critical
// path. A Pool parks its workers on per-worker channels instead: a
// parallel region is one channel send per helper and one receive to
// collect the region, roughly an order of magnitude cheaper than a spawn.
//
// A Pool of width w owns w-1 resident workers; the goroutine that calls
// For/Do always executes slot 0 inline, so a width-1 pool runs everything
// sequentially with zero synchronization (the inline fast path). Slots
// beyond the resident width are queued and served as workers free up,
// which keeps any requested worker count correct — physical parallelism
// is simply capped at the pool width.
//
// Pools are safe for concurrent use: independent parallel regions issued
// from different goroutines share the workers, and a round-robin cursor
// spreads their helper slots across the pool. While a region's issuer
// waits for its helpers it steals back tasks that no worker has claimed
// yet and runs them inline, so a region always completes even when every
// resident worker is busy — including regions issued from inside another
// region's body, though such nesting shares rather than multiplies the
// pool's physical parallelism.
//
// The zero value is not usable; use NewPool, or the process-wide Default
// pool that the package-level For dispatches to.
type Pool struct {
	width int
	chans []chan task
	rr    atomic.Uint32
	once  sync.Once // guards Close
}

// task is one helper slot of a parallel region.
type task struct {
	run  func(slot int)
	slot int
	g    *group
}

// group tracks the helper slots of one region. pending counts helpers
// still running; the worker that finishes last signals done. Groups are
// recycled through a sync.Pool so a steady state of parallel regions
// allocates only the body closure.
type group struct {
	pending atomic.Int64
	done    chan struct{}
}

var groupPool = sync.Pool{New: func() any { return &group{done: make(chan struct{}, 1)} }}

// loopState is the recycled per-region scheduling state of a parallel for.
// The three policy runners are closures built once per loopState that read
// the state's fields, so a steady stream of parallel regions whose bodies
// are themselves long-lived (the session workspaces of the matching
// pipeline) dispatches with zero allocations: For fills in the fields,
// hands a prebuilt runner to dispatch, and returns the state to the arena.
// A loopState is exclusively owned between Get and Put — dispatch only
// returns after every slot has finished — so the runners never observe a
// torn state.
type loopState struct {
	next    atomic.Int64
	n       int
	chunk   int
	workers int
	body    func(worker, lo, hi int)
	// cancel, when non-nil, is polled between chunk claims (and between
	// chunk-sized steps of a static block): once it reports true, no new
	// chunk is started. Iterations already in flight complete — the hook is
	// cooperative, not preemptive — so a canceled loop leaves its outputs
	// partially written and the caller must discard them.
	cancel func() bool

	runDynamic func(slot int)
	runGuided  func(slot int)
	runStatic  func(slot int)
}

var loopPool = sync.Pool{New: func() any {
	l := &loopState{}
	l.runDynamic = func(slot int) {
		for {
			if l.cancel != nil && l.cancel() {
				return
			}
			lo := int(l.next.Add(int64(l.chunk))) - l.chunk
			if lo >= l.n {
				return
			}
			hi := lo + l.chunk
			if hi > l.n {
				hi = l.n
			}
			l.body(slot, lo, hi)
		}
	}
	l.runGuided = func(slot int) {
		for {
			if l.cancel != nil && l.cancel() {
				return
			}
			cur := l.next.Load()
			remaining := int64(l.n) - cur
			if remaining <= 0 {
				return
			}
			size := remaining / int64(2*l.workers)
			if size < int64(l.chunk) {
				size = int64(l.chunk)
			}
			if size > remaining {
				size = remaining
			}
			if l.next.CompareAndSwap(cur, cur+size) {
				l.body(slot, int(cur), int(cur+size))
			}
		}
	}
	l.runStatic = func(slot int) {
		lo := slot * l.n / l.workers
		hi := (slot + 1) * l.n / l.workers
		if lo >= hi {
			return
		}
		if l.cancel == nil {
			l.body(slot, lo, hi)
			return
		}
		// Cancellable static blocks step in chunk-sized pieces so the hook
		// gets polled at the same granularity as the dynamic policies. The
		// body sees the same (worker, lo, hi) partitioning semantics.
		for ; lo < hi; lo += l.chunk {
			if l.cancel() {
				return
			}
			end := lo + l.chunk
			if end > hi {
				end = hi
			}
			l.body(slot, lo, end)
		}
	}
	return l
}}

// scratchF64 recycles the per-slot partial-result slices of
// ReduceFloat64, for the same reason loopPool exists: reductions run on
// the hot path of every scaling sweep.
var scratchF64 = sync.Pool{New: func() any { return new([]float64) }}

func (g *group) finish() {
	if g.pending.Add(-1) == 0 {
		g.done <- struct{}{}
	}
}

// runTask executes one helper slot and always signals its group, even if
// the body panics and someone up the stack recovers — otherwise a single
// panicking region would wedge every later region sharing the group's
// issuer or, on a shared server pool, an unrelated request's wait.
func runTask(t task) {
	defer t.g.finish()
	t.run(t.slot)
}

// spinRounds bounds the cooperative polling both sides do before parking
// on their channel. Parallel regions in the matching pipeline arrive
// back-to-back (scaling sweeps, then sampling, then two Karp–Sipser
// phases), so a short yield-poll window lets workers catch the next
// region and the caller catch the last finisher without paying a
// scheduler park/wake, while idle pools still quiesce after a few
// microseconds. Gosched (not a busy spin) keeps the poll cooperative on
// machines where workers time-share a core.
const spinRounds = 64

// recvSpin polls ch with yields before falling back to a blocking
// receive.
func recvSpin(ch chan task) (task, bool) {
	for i := 0; i < spinRounds; i++ {
		select {
		case t, ok := <-ch:
			return t, ok
		default:
			runtime.Gosched()
		}
	}
	t, ok := <-ch
	return t, ok
}

// wait blocks until every helper slot of the group has finished,
// yield-polling the countdown before parking on the done channel. The
// receive always happens — the last finisher's send is what resets the
// channel for the group's next reuse.
func (g *group) wait() {
	for i := 0; i < spinRounds && g.pending.Load() != 0; i++ {
		runtime.Gosched()
	}
	<-g.done
}

// NewPool returns a pool of the given parallel width: width-1 resident
// workers plus the calling goroutine. A non-positive width means
// GOMAXPROCS. Call Close when the pool is no longer needed; the Default
// pool must not be closed.
func NewPool(width int) *Pool {
	width = Workers(width)
	p := &Pool{width: width, chans: make([]chan task, width-1)}
	for i := range p.chans {
		ch := make(chan task, 4)
		p.chans[i] = ch
		go func() {
			for {
				t, ok := recvSpin(ch)
				if !ok {
					return
				}
				runTask(t)
			}
		}()
	}
	return p
}

// Width returns the parallel width the pool was created with (resident
// workers + 1 for the caller).
func (p *Pool) Width() int { return p.width }

// Close releases the resident workers. It must not be called while a
// parallel region is in flight or issued afterwards, and is idempotent.
func (p *Pool) Close() {
	p.once.Do(func() {
		for _, ch := range p.chans {
			close(ch)
		}
	})
}

// Workers normalizes a requested worker count against the pool: values
// <= 0 mean the pool width.
func (p *Pool) Workers(n int) int {
	if n <= 0 {
		return p.width
	}
	return n
}

// Slots returns the number of worker slots a region over n iterations
// runs on when the given worker count is requested: the normalized count,
// clamped to n. A region of one slot runs its body inline on the calling
// goroutine, over [0, n) in index order.
func (p *Pool) Slots(n, workers int) int {
	workers = p.Workers(workers)
	if workers > n {
		workers = n
	}
	return workers
}

// dispatch runs run(slot) for every slot in [0, slots), slot 0 on the
// calling goroutine and the rest on pool workers. With no resident
// workers the slots run inline in order, which is exactly the
// time-sliced schedule a width-limited machine would produce.
func (p *Pool) dispatch(slots int, run func(slot int)) {
	nw := len(p.chans)
	if slots <= 1 || nw == 0 {
		for s := 0; s < slots; s++ {
			run(s)
		}
		return
	}
	g := groupPool.Get().(*group)
	g.pending.Store(int64(slots - 1))
	// Reduce the cursor modulo nw while still unsigned: a plain
	// int(p.rr.Add(1)-1) goes negative on 32-bit platforms once the
	// counter wraps, and Go's % would then produce a negative index.
	start := int((p.rr.Add(1) - 1) % uint32(nw))
	sent := slots - 1
	if sent > nw {
		sent = nw
	}
	for s := 1; s < slots; s++ {
		t := task{run: run, slot: s, g: g}
		select {
		case p.chans[(start+s-1)%nw] <- t:
		default:
			// The worker's queue is full — the pool is saturated by
			// concurrent or nested regions. Never block on the send: the
			// issuer is the one goroutine guaranteed to be making
			// progress, so it runs the slot inline. (A blocking send
			// here could deadlock a nested region once every resident
			// worker is itself an issuer stuck mid-send.)
			runTask(t)
		}
	}
	run(0)
	// Help while waiting: steal back tasks that are still queued (no
	// worker has claimed them yet) and run them on this goroutine. On a
	// machine narrower than the requested width — or when the workers are
	// busy with another region — this turns the handoff into plain
	// function calls instead of scheduler wakes, and it lets a region
	// issued from inside another region complete even if every resident
	// worker is occupied.
	for g.pending.Load() != 0 {
		stole := false
		for k := 0; k < sent; k++ {
			select {
			case t, ok := <-p.chans[(start+k)%nw]:
				if ok {
					runTask(t)
					stole = true
				}
			default:
			}
		}
		if !stole {
			break
		}
	}
	g.wait()
	groupPool.Put(g)
}

// For executes body over the half-open range [0, n) on the pool using the
// given number of worker slots and scheduling policy; see the package
// function For for the full contract.
func (p *Pool) For(n, workers int, policy Policy, chunk int, body func(worker, lo, hi int)) {
	p.ForCancel(n, workers, policy, chunk, nil, body)
}

// ForCancel is For with a cooperative cancellation hook: cancel (when
// non-nil) is polled between chunks on every worker, and once it reports
// true no further chunk is started — the region returns early with the
// remaining iterations never run. Chunks already executing finish normally,
// so outputs of a canceled loop are partial and must be discarded by the
// caller. A nil cancel is exactly For. The hook must be safe for concurrent
// use and cheap (it is called once per chunk, not per iteration).
func (p *Pool) ForCancel(n, workers int, policy Policy, chunk int, cancel func() bool, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = p.Slots(n, workers)
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	if workers == 1 {
		if cancel == nil {
			body(0, 0, n)
			return
		}
		// The inline width-1 fast path polls at the same chunk granularity
		// as the parallel policies — this is the path the serving layer's
		// width-1 session arenas run, so deadline checks must reach it.
		for lo := 0; lo < n; lo += chunk {
			if cancel() {
				return
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			body(0, lo, hi)
		}
		return
	}
	l := loopPool.Get().(*loopState)
	l.next.Store(0)
	l.n, l.chunk, l.workers, l.body, l.cancel = n, chunk, workers, body, cancel
	switch policy {
	case Dynamic:
		p.dispatch(workers, l.runDynamic)
	case Guided:
		p.dispatch(workers, l.runGuided)
	default: // Static
		p.dispatch(workers, l.runStatic)
	}
	l.body, l.cancel = nil, nil // don't pin the caller's closures in the arena
	loopPool.Put(l)
}

// Do runs fn once per worker id in [0, workers) concurrently on the pool
// and waits for all of them. It is the building block for loops that need
// per-worker state such as RNG streams.
func (p *Pool) Do(workers int, fn func(worker int)) {
	workers = p.Workers(workers)
	if workers == 1 {
		fn(0)
		return
	}
	p.dispatch(workers, fn)
}

// ReduceFloat64 runs a parallel-for on the pool and combines one float64
// partial result per worker slot with combine (which must be associative
// and commutative). identity is the initial value of every partial
// accumulator.
func (p *Pool) ReduceFloat64(n, workers int, policy Policy, chunk int, identity float64,
	body func(worker, lo, hi int, acc float64) float64,
	combine func(a, b float64) float64) float64 {
	workers = p.Workers(workers)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	sp := scratchF64.Get().(*[]float64)
	if cap(*sp) < workers {
		*sp = make([]float64, workers)
	}
	parts := (*sp)[:workers]
	for i := range parts {
		parts[i] = identity
	}
	p.For(n, workers, policy, chunk, func(w, lo, hi int) {
		parts[w] = body(w, lo, hi, parts[w])
	})
	out := identity
	for _, part := range parts {
		out = combine(out, part)
	}
	scratchF64.Put(sp)
	return out
}

var (
	defaultMu   sync.Mutex
	defaultPool atomic.Pointer[Pool]
)

// Default returns the process-wide pool, sized to runtime.GOMAXPROCS. The
// package-level For dispatches to it. It must never be closed.
//
// The width tracks runtime.GOMAXPROCS: when a call observes a changed
// value, a fresh pool of the new width is built and published, and later
// calls use it. The previous default is retired, not closed — regions
// already in flight on it complete normally, and its workers stay parked
// for the life of the process (a handful of idle goroutines per resize;
// GOMAXPROCS changes are rare). Callers that hold a pool across a resize
// simply keep the old width, so sessions pin their parallel width at
// construction.
func Default() *Pool {
	want := Workers(0)
	if p := defaultPool.Load(); p != nil && p.width == want {
		return p
	}
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if p := defaultPool.Load(); p != nil && p.width == want {
		return p
	}
	p := NewPool(want)
	defaultPool.Store(p)
	return p
}
