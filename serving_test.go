package bipartite

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/par"
)

// countScaleRuns installs the scaling counter hook for the duration of the
// test and returns the counter. Tests using it must not run in parallel
// with each other (the hook is process-global); none of this package's
// tests call t.Parallel, so plain use is safe.
func countScaleRuns(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	hook := func() { n.Add(1) }
	scaleRunHook.Store(&hook)
	t.Cleanup(func() { scaleRunHook.Store(nil) })
	return &n
}

// freshCopy returns a new Graph with g's pattern: the same scalings and
// matchings as g, computed into caches of its own.
func freshCopy(t *testing.T, g *Graph) *Graph {
	t.Helper()
	rows, cols, ptr, idx := g.CSR()
	c, err := NewGraph(rows, cols, ptr, idx)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestServerSharedScalingOncePerGraph is the acceptance gate for the
// per-graph scaling cell: a warm batch of N requests on one registered
// graph performs exactly ONE scaling run, however many slots serve it and
// however the collector batches it — where a per-slot scaling would
// perform one per slot.
func TestServerSharedScalingOncePerGraph(t *testing.T) {
	g := RandomER(1200, 1200, 4, 77)
	// Reference first, outside the counter's scope, on a copy: g itself
	// must reach the server cold.
	ref, err := freshCopy(t, g).Match(Spec{Algorithm: AlgTwoSided, Seed: 9}, &Options{ScalingIterations: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	pool := NewPool(4)
	defer pool.Close()
	scales := countScaleRuns(t)
	srv := NewServerConfig(&Options{ScalingIterations: 5, Pool: pool}, ServerConfig{MaxBatch: 64})
	defer srv.Close()

	const submitters, perSubmitter = 8, 8
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for s := 0; s < submitters; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perSubmitter; k++ {
				alg := AlgTwoSided
				if k%2 == 1 {
					alg = AlgOneSided
				}
				resp := srv.Match(Request{Graph: g, Spec: Spec{Algorithm: alg, Seed: uint64(s*perSubmitter + k + 1)}})
				if resp.Err != nil {
					errs <- fmt.Errorf("submitter %d req %d: %w", s, k, resp.Err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := scales.Load(); n != 1 {
		t.Fatalf("served %d requests with %d scaling runs, want exactly 1",
			submitters*perSubmitter, n)
	}
	// The shared scaling must not perturb results: one more request
	// reproduces the one-shot width-1 reference bit for bit.
	resp := srv.Match(Request{Graph: g, Spec: Spec{Algorithm: AlgTwoSided, Seed: 9}})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	cmpMates(t, "post-warmup determinism", resp.Matching, ref.Matching)
}

// TestServerSharesGraphScalingWithOneShotCalls: on one width-4 pool,
// full-width Graph.Match calls, 64 Server reads and a NewDynSession all hit
// one fresh graph at once. The full-width calls compute without the cell's
// lock while the Server's width-1 slots and the session wait on it, so
// nothing may deadlock: every call finishes within the timeout. Every
// returned scaling equals a separately built copy's, bit for bit; the
// width-1 callers share one run, so at most one run per full-width caller
// plus one happens; and further calls run no scaling.
func TestServerSharesGraphScalingWithOneShotCalls(t *testing.T) {
	g := RandomER(3000, 3000, 4, 91)
	want, err := freshCopy(t, g).NewMatcher(&Options{ScalingIterations: 5, Workers: 1}).Scale()
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(4)
	defer pool.Close()
	opt := &Options{ScalingIterations: 5, Pool: pool}
	scales := countScaleRuns(t)
	srv := NewServerConfig(opt, ServerConfig{MaxBatch: 16})
	defer srv.Close()

	const oneShots, submitters, perSubmitter = 4, 8, 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, oneShots+submitters+1)
	got := make([]*Scaling, oneShots)
	for k := 0; k < oneShots; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := g.Match(Spec{Seed: uint64(k + 1)}, opt)
			if err != nil {
				errs <- fmt.Errorf("Graph.Match %d: %w", k, err)
				return
			}
			got[k] = res.Scaling
		}()
	}
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := 0; k < perSubmitter; k++ {
				resp := srv.Match(Request{Graph: g, Spec: Spec{Seed: uint64(s*perSubmitter + k + 1)}})
				if resp.Err != nil {
					errs <- fmt.Errorf("submitter %d read %d: %w", s, k, resp.Err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if _, err := g.NewDynSession(Spec{}, opt); err != nil {
			errs <- fmt.Errorf("NewDynSession: %w", err)
		}
	}()
	close(start)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("calls sharing one graph's scaling did not finish within 2 minutes")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := scales.Load(); n < 1 || n > oneShots+1 {
		t.Fatalf("%d scaling runs for %d full-width callers and the width-1 ones, want 1 to %d",
			n, oneShots, oneShots+1)
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	for k, sc := range got {
		what := fmt.Sprintf("Graph.Match %d", k)
		same(what+" DR", sc.DR, want.DR)
		same(what+" DC", sc.DC, want.DC)
		same(what+" RowSums", sc.RowSums, want.RowSums)
		same(what+" ColSums", sc.ColSums, want.ColSums)
		same(what+" History", sc.History, want.History)
	}

	before := scales.Load()
	if _, err := g.Match(Spec{Seed: 99}, opt); err != nil {
		t.Fatal(err)
	}
	resp := srv.Match(Request{Graph: g, Spec: Spec{Seed: 99}})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	same("Server response DR", resp.Scaling.DR, want.DR)
	same("Server response DC", resp.Scaling.DC, want.DC)
	if _, err := g.NewDynSession(Spec{Seed: 99}, opt); err != nil {
		t.Fatal(err)
	}
	if n := scales.Load(); n != before {
		t.Fatalf("further calls on the scaled graph: %d more scaling runs, want 0", n-before)
	}
}

// TestMatchBatchSharedScalingPerGraph: Server.MatchBatch shares scalings
// too — one run per distinct graph, not per (slot, graph).
func TestMatchBatchSharedScalingPerGraph(t *testing.T) {
	g1 := RandomER(900, 900, 4, 5)
	g2 := FullyIndecomposable(700, 2, 6)
	pool := NewPool(4)
	defer pool.Close()
	scales := countScaleRuns(t)
	var reqs []Request
	for s := uint64(1); s <= 24; s++ {
		reqs = append(reqs,
			Request{Graph: g1, Spec: Spec{Algorithm: AlgTwoSided, Seed: s}},
			Request{Graph: g2, Spec: Spec{Algorithm: AlgOneSided, Seed: s}},
			Request{Graph: g1, Spec: Spec{Algorithm: AlgKarpSipser, Seed: s}}, // no scaling needed
		)
	}
	for i, resp := range matchBatch(reqs, &Options{ScalingIterations: 5, Pool: pool}) {
		if resp.Err != nil {
			t.Fatalf("req %d: %v", i, resp.Err)
		}
	}
	if n := scales.Load(); n != 2 {
		t.Fatalf("%d scaling runs for 2 distinct scaled graphs, want 2", n)
	}
}

// TestServerOverloadedWhenQueueFull fills the bounded admission queue
// deterministically (the collector is stalled via the batch test hook) and
// checks the overflow submission fails fast with ErrOverloaded, stalled
// requests still complete, and no goroutine leaks — Match allocates no
// goroutine, so rejected and served requests alike leave none behind.
func TestServerOverloadedWhenQueueFull(t *testing.T) {
	g := RandomER(300, 300, 3, 1)
	// The process-wide default pool, which the engine dispatches to,
	// parks its workers for the life of the process: start it before the
	// baseline so that only the server's own goroutines are counted.
	par.Default()
	baseline := runtime.NumGoroutine()

	srv := NewServerConfig(&Options{ScalingIterations: 2, Workers: 1},
		ServerConfig{MaxBatch: 1, Queue: 1})
	release := make(chan struct{})
	entered := make(chan int, 8)
	srv.testHookBatch = func(n int) {
		entered <- n
		<-release
	}

	// First request: admitted, drained into a batch, stalled in the hook.
	first := make(chan Response, 1)
	go func() { first <- srv.Match(Request{Graph: g, Spec: Spec{Seed: 1}}) }()
	<-entered

	// Second request: admitted, fills the queue (depth 1).
	second := make(chan Response, 1)
	go func() { second <- srv.Match(Request{Graph: g, Spec: Spec{Seed: 2}}) }()
	waitFor(t, "queue to fill", func() bool { return len(srv.jobs) == 1 })

	// Third request: the queue is full — rejected immediately, from the
	// submitting goroutine, with no kernel work and no new goroutine.
	start := time.Now()
	resp := srv.Match(Request{Graph: g, Spec: Spec{Seed: 3}})
	if !errors.Is(resp.Err, ErrOverloaded) {
		t.Fatalf("overflow submission returned %v, want ErrOverloaded", resp.Err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("rejection took %v, want immediate", elapsed)
	}

	// Release the collector: the two admitted requests complete normally.
	close(release)
	for i, ch := range []chan Response{first, second} {
		select {
		case r := <-ch:
			if r.Err != nil {
				t.Fatalf("admitted request %d failed: %v", i, r.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("admitted request %d never completed", i)
		}
	}
	st := srv.Stats()
	if st.Rejected != 1 {
		t.Fatalf("stats: %d rejected, want 1", st.Rejected)
	}
	if st.Requests != 2 {
		t.Fatalf("stats: %d served, want 2", st.Requests)
	}
	srv.Close()

	// goleak-style count: everything the server and its callers spawned
	// must be gone (the collector exits in Close; Match spawns nothing).
	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline
	})
}

// waitFor polls cond (it should become true within milliseconds) and
// fails the test after a generous timeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerExpiredContextSkipsKernels: a request whose context is already
// done is answered with the context's error before any kernel (scaling
// included) runs.
func TestServerExpiredContextSkipsKernels(t *testing.T) {
	g := RandomER(2000, 2000, 4, 3)
	scales := countScaleRuns(t)
	srv := NewServerConfig(&Options{ScalingIterations: 5, Workers: 1}, ServerConfig{MaxBatch: 16})
	defer srv.Close()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	resp := srv.Match(Request{Graph: g, Spec: Spec{Algorithm: AlgTwoSided, Seed: 1}, Ctx: canceled})
	if !errors.Is(resp.Err, context.Canceled) {
		t.Fatalf("canceled request returned %v, want context.Canceled", resp.Err)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel2()
	resp = srv.Match(Request{Graph: g, Spec: Spec{Algorithm: AlgTwoSided, Seed: 1}, Ctx: expired})
	if !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("expired request returned %v, want context.DeadlineExceeded", resp.Err)
	}

	if n := scales.Load(); n != 0 {
		t.Fatalf("%d scaling runs for dead-on-arrival requests, want 0", n)
	}
}

// TestMatchBatchExpiredContextInBatch: expiry is honored per request — a
// dead request of a batch answers with its context error, and live
// neighbors in the same batch are unaffected.
func TestMatchBatchExpiredContextInBatch(t *testing.T) {
	g := RandomER(800, 800, 4, 3)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	out := matchBatch([]Request{
		{Graph: g, Spec: Spec{Seed: 1}},
		{Graph: g, Spec: Spec{Seed: 2}, Ctx: canceled},
		{Graph: g, Spec: Spec{Seed: 3}, Ctx: context.Background()},
	}, &Options{ScalingIterations: 5})
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("live requests failed: %v %v", out[0].Err, out[2].Err)
	}
	if !errors.Is(out[1].Err, context.Canceled) {
		t.Fatalf("dead request returned %v, want context.Canceled", out[1].Err)
	}
	if out[1].Matching != nil {
		t.Fatal("dead request produced a matching")
	}
}

// TestMatcherCancelMidRun arms the session cancellation hook so it fires
// after a few checkpoint polls — mid-pipeline, deterministically — and
// checks each algorithm's Run aborts with ErrCanceled and that the
// session serves correct results again afterwards.
func TestMatcherCancelMidRun(t *testing.T) {
	g := RandomER(3000, 3000, 4, 21)
	want, err := g.Match(Spec{Algorithm: AlgTwoSided, Seed: 5}, &Options{ScalingIterations: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	m := g.NewMatcher(&Options{ScalingIterations: 5, Workers: 1})
	var polls atomic.Int64
	fireAfter := func(n int64) func() bool {
		polls.Store(0)
		return func() bool { return polls.Add(1) > n }
	}

	for _, c := range []struct {
		alg   Algorithm
		polls int64
	}{{AlgTwoSided, 3}, {AlgOneSided, 2}, {AlgKarpSipser, 1}} {
		m.setCancel(fireAfter(c.polls))
		if _, err := m.Run(Spec{Algorithm: c.alg, Seed: 5}); !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s under mid-run cancel: %v, want ErrCanceled", c.alg, err)
		}
	}

	// Cancellation must not poison the session: cleared hook, correct
	// (reference-identical) result.
	m.setCancel(nil)
	res, err := m.Run(Spec{Algorithm: AlgTwoSided, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cmpMates(t, "post-cancel reuse", res.Matching, want.Matching)
}

// TestServerRefinementStopsAtDeadline: a refinement whose deadline expires
// mid-run gives its batch slot back within one refinement unit. The graph
// is RankDeficient(8000, 2400, 6) beside its transpose, so 2,400 doomed
// vertices sit on each side and push-relabel runs for seconds whichever
// side it searches from. With a 100 ms deadline, on a Server that runs
// one request per batch, it must fail with its deadline error, and a
// TwoSided request on a 1,000-row graph sent after it must be answered
// within 1 s.
func TestServerRefinementStopsAtDeadline(t *testing.T) {
	rd := gen.RankDeficient(8000, 2400, 6, 1)
	big := newGraph(gen.DirectSum(rd, rd.Transpose()))
	small := RandomER(1000, 1000, 4, 2)
	srv := NewServerConfig(&Options{ScalingIterations: 5}, ServerConfig{MaxBatch: 1})
	defer srv.Close()
	entered := make(chan struct{}, 1)
	srv.testHookBatch = func(int) {
		select {
		case entered <- struct{}{}:
		default:
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	first := make(chan Response, 1)
	go func() {
		first <- srv.Match(Request{Graph: big, Spec: Spec{Refine: RefinePushRelabel, Seed: 1}, Ctx: ctx})
	}()
	<-entered

	start := time.Now()
	resp := srv.Match(Request{Graph: small, Spec: Spec{Seed: 3}})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("TwoSided request behind an expired refinement took %v, want <= 1s", elapsed)
	}
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if r := <-first; !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("refinement past its deadline returned %v, want context.DeadlineExceeded", r.Err)
	}
}

// TestServerCancelWhileQueued: a caller whose context dies while its
// request waits in the queue gets its context error promptly; the server
// is not wedged for later callers.
func TestServerCancelWhileQueued(t *testing.T) {
	g := RandomER(300, 300, 3, 1)
	srv := NewServerConfig(&Options{ScalingIterations: 2, Workers: 1},
		ServerConfig{MaxBatch: 1, Queue: 2})
	release := make(chan struct{})
	entered := make(chan int, 8)
	srv.testHookBatch = func(n int) {
		entered <- n
		select {
		case <-release:
		case <-time.After(10 * time.Second):
		}
	}
	first := make(chan Response, 1)
	go func() { first <- srv.Match(Request{Graph: g, Spec: Spec{Seed: 1}}) }()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan Response, 1)
	go func() { queued <- srv.Match(Request{Graph: g, Spec: Spec{Seed: 2}, Ctx: ctx}) }()
	waitFor(t, "queue to fill", func() bool { return len(srv.jobs) == 1 })
	cancel()
	select {
	case r := <-queued:
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("queued-then-canceled request returned %v, want context.Canceled", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled caller still blocked after 5s")
	}

	close(release)
	if r := <-first; r.Err != nil {
		t.Fatal(r.Err)
	}
	srv.Close()
}

// TestServerClosedRejects: submissions after Close fail with
// ErrServerClosed instead of panicking on the closed queue. (Close
// concurrent with Match remains documented as disallowed; this covers the
// sequential after-Close case.)
func TestServerClosedRejects(t *testing.T) {
	srv := NewServerConfig(nil, ServerConfig{MaxBatch: 4})
	srv.Close()
	resp := srv.Match(Request{Graph: RandomER(50, 50, 2, 1), Spec: Spec{Seed: 1}})
	if !errors.Is(resp.Err, ErrServerClosed) {
		t.Fatalf("post-Close Match returned %v, want ErrServerClosed", resp.Err)
	}
}

// TestServerCloseConcurrentWithMatch hammers Match from several
// goroutines while Close lands mid-traffic: submissions racing the close
// must resolve to ErrServerClosed (never a send-on-closed-channel panic),
// and responses admitted before the close complete normally — this is the
// shutdown path cmd/matchserve takes when its listener dies.
func TestServerCloseConcurrentWithMatch(t *testing.T) {
	g := RandomER(400, 400, 3, 1)
	for round := 0; round < 4; round++ {
		srv := NewServerConfig(&Options{ScalingIterations: 2, Workers: 1}, ServerConfig{MaxBatch: 8})
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for s := 0; s < 4; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seed := uint64(1); ; seed++ {
					resp := srv.Match(Request{Graph: g, Spec: Spec{Seed: seed}})
					switch {
					case resp.Err == nil, errors.Is(resp.Err, ErrOverloaded):
					case errors.Is(resp.Err, ErrServerClosed):
						return
					default:
						t.Errorf("unexpected error during shutdown race: %v", resp.Err)
						return
					}
					select {
					case <-stop:
						// The server closed but this goroutine kept
						// winning the race; stop anyway.
						return
					default:
					}
				}
			}()
		}
		time.Sleep(2 * time.Millisecond)
		srv.Close()
		close(stop)
		wg.Wait()
	}
}

// TestMatchBatchHeterogeneousShapes routes graphs of several distinct
// shapes — more than slotArenaCap — through a width-1 pool, forcing the
// slot's shape-keyed arena cache to recycle, and checks every response
// still equals its width-1 one-shot reference.
func TestMatchBatchHeterogeneousShapes(t *testing.T) {
	shapes := []*Graph{
		RandomER(300, 300, 3, 1),
		RandomER(450, 200, 3, 2),
		RandomER(200, 450, 3, 3),
		FullyIndecomposable(350, 2, 4),
		RandomER(512, 512, 4, 5),
		Grid2D(20, 25),
	}
	base := Options{ScalingIterations: 5}
	var reqs []Request
	for round := 0; round < 3; round++ {
		for i, g := range shapes {
			reqs = append(reqs, Request{Graph: g, Spec: Spec{Algorithm: AlgTwoSided, Seed: uint64(round*len(shapes) + i + 1)}})
		}
	}
	want := make([]*Matching, len(reqs))
	for i, req := range reqs {
		want[i] = batchReference(t, req, base)
	}
	pool := NewPool(1)
	defer pool.Close()
	opt := base
	opt.Pool = pool
	for i, resp := range matchBatch(reqs, &opt) {
		if resp.Err != nil {
			t.Fatalf("req %d: %v", i, resp.Err)
		}
		cmpMates(t, fmt.Sprintf("heterogeneous req %d", i), resp.Matching, want[i])
	}
}

// TestServerMatchBatchPartialOverload: a burst larger than the admission
// queue gets per-slot ErrOverloaded responses for the overflow while the
// admitted prefix is served.
func TestServerMatchBatchPartialOverload(t *testing.T) {
	g := RandomER(200, 200, 3, 1)
	srv := NewServerConfig(&Options{ScalingIterations: 2, Workers: 1},
		ServerConfig{MaxBatch: 4, Queue: 4})
	defer srv.Close()
	release := make(chan struct{})
	entered := make(chan int, 64)
	srv.testHookBatch = func(n int) {
		entered <- n
		select {
		case <-release:
		case <-time.After(10 * time.Second):
		}
	}
	// Stall the collector on a first request so the burst below meets a
	// full, static queue.
	first := make(chan Response, 1)
	go func() { first <- srv.Match(Request{Graph: g, Spec: Spec{Seed: 99}}) }()
	<-entered

	burst := make([]Request, 10)
	for i := range burst {
		burst[i] = Request{Graph: g, Spec: Spec{Seed: uint64(i + 1)}}
	}
	done := make(chan []Response, 1)
	go func() { done <- srv.MatchBatch(burst) }()
	waitFor(t, "queue to fill", func() bool { return len(srv.jobs) == 4 })
	close(release)

	out := <-done
	served, overloaded := 0, 0
	for i, resp := range out {
		switch {
		case resp.Err == nil:
			served++
		case errors.Is(resp.Err, ErrOverloaded):
			overloaded++
		default:
			t.Fatalf("req %d: unexpected error %v", i, resp.Err)
		}
	}
	if served != 4 || overloaded != 6 {
		t.Fatalf("served %d / overloaded %d, want 4 / 6", served, overloaded)
	}
	if r := <-first; r.Err != nil {
		t.Fatal(r.Err)
	}
}
