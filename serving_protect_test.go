package bipartite

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/watchdog"
)

// This file is the self-protection layer's fault-injection suite: fake
// CPU readers and a fake clock drive the watchdog through scripted load
// histories (no actual CPU is burned, no actual memory grown), so every
// shed/degrade/recover transition is deterministic. All tests are named
// TestProtect* so the CI chaos job can select exactly this suite.

// fakeLoad scripts a process load history for a Server's watchdog: each
// tick advances the fake clock one sampling interval and accrues busy
// fraction of total CPU capacity. The watchdog interval is set huge so
// the background loop never samples on its own — every transition comes
// from an explicit tick.
type fakeLoad struct {
	mu    sync.Mutex
	now   time.Time
	cpu   time.Duration
	busy  float64
	iv    time.Duration
	cores int
}

func newFakeLoad() *fakeLoad {
	return &fakeLoad{now: time.Unix(1000, 0), iv: time.Hour, cores: runtime.NumCPU()}
}

// config returns a WatchdogConfig wired to the fake readers and clock.
func (f *fakeLoad) config(cpuLimit float64) WatchdogConfig {
	return WatchdogConfig{
		CPULimit: cpuLimit,
		Interval: f.iv,
		ReadCPU: func() (time.Duration, error) {
			f.mu.Lock()
			defer f.mu.Unlock()
			return f.cpu, nil
		},
		Now: func() time.Time {
			f.mu.Lock()
			defer f.mu.Unlock()
			return f.now
		},
	}
}

func (f *fakeLoad) setBusy(b float64) {
	f.mu.Lock()
	f.busy = b
	f.mu.Unlock()
}

// tick advances one sampling period at the current load and steps the
// server's watchdog.
func (f *fakeLoad) tick(srv *Server) {
	f.mu.Lock()
	f.now = f.now.Add(f.iv)
	f.cpu += time.Duration(f.busy * float64(f.cores) * float64(f.iv))
	f.mu.Unlock()
	srv.wd.Tick()
}

// heat ticks until the watchdog reports the wanted level (the first tick
// only establishes the CPU baseline).
func (f *fakeLoad) heat(t *testing.T, srv *Server, busy float64, want ShedLevel) {
	t.Helper()
	f.setBusy(busy)
	for i := 0; i < 4; i++ {
		f.tick(srv)
		if srv.Health().Level == want {
			return
		}
	}
	t.Fatalf("level %v after heating at busy=%v, want %v", srv.Health().Level, busy, want)
}

// TestProtectShedThenRecover is the tentpole's acceptance gate: under
// injected overload the server sheds normal-priority work with a typed,
// Retry-After-carrying error while still serving high priority
// (degraded), and once the load clears it decays back to nominal and
// serves everything at full quality again — leaving no goroutines behind.
func TestProtectShedThenRecover(t *testing.T) {
	g := RandomER(300, 300, 3, 1)
	// The process-wide default pool, which the engine dispatches to,
	// parks its workers for the life of the process: start it before the
	// baseline so that only the server's own goroutines are counted.
	par.Default()
	baseline := runtime.NumGoroutine()

	f := newFakeLoad()
	srv := NewServerConfig(&Options{ScalingIterations: 2, Workers: 1},
		ServerConfig{MaxBatch: 8, Watchdog: f.config(0.5)})

	// Nominal: full service, no degradation marker.
	resp := srv.Match(Request{Graph: g, Spec: Spec{Seed: 1, Refine: RefineExact}})
	if resp.Err != nil || resp.Degraded != "" {
		t.Fatalf("nominal request: err=%v degraded=%q, want served undegraded", resp.Err, resp.Degraded)
	}

	// Overload: busy 0.7 of capacity against a 0.5 limit = utilization 1.4
	// — Critical in one post-baseline sample.
	f.heat(t, srv, 0.7, ShedCritical)
	h := srv.Health()
	if h.CPU < 0.69 || h.CPU > 0.71 || h.Utilization < 1.39 || h.Utilization > 1.41 {
		t.Fatalf("health cpu=%v util=%v, want ~0.70 / ~1.40", h.CPU, h.Utilization)
	}

	// Normal and low priority are shed with the typed error.
	for _, prio := range []Priority{PriorityNormal, PriorityLow} {
		resp = srv.Match(Request{Graph: g, Spec: Spec{Seed: 2}, Priority: prio})
		if !errors.Is(resp.Err, ErrShed) {
			t.Fatalf("priority %v under critical: %v, want ErrShed", prio, resp.Err)
		}
		var shed *ShedError
		if !errors.As(resp.Err, &shed) {
			t.Fatalf("shed error is %T, want *ShedError", resp.Err)
		}
		if shed.Level != ShedCritical {
			t.Fatalf("shed at level %v, want critical", shed.Level)
		}
		if want := srv.wd.RecoveryHint(); shed.RetryAfter != want {
			t.Fatalf("shed Retry-After %v, want the recovery hint %v", shed.RetryAfter, want)
		}
	}

	// High priority is still served — degraded, not refused: the exact
	// refinement is dropped and the marker says so.
	resp = srv.Match(Request{Graph: g, Priority: PriorityHigh, Spec: Spec{Seed: 3, Refine: RefineExact}})
	if resp.Err != nil {
		t.Fatalf("high priority under critical: %v, want served", resp.Err)
	}
	if resp.Degraded != "refine:exact->none" {
		t.Fatalf("degraded marker %q, want refine:exact->none", resp.Degraded)
	}
	if resp.Refined {
		t.Fatal("degraded response claims a refinement stage ran")
	}
	if resp.Matching == nil || resp.Matching.Size == 0 {
		t.Fatal("degraded response has no matching")
	}

	// Load clears: three one-level decays at Settle=3 calm samples each.
	f.setBusy(0.05)
	for i := 0; i < 9; i++ {
		f.tick(srv)
	}
	if lvl := srv.Health().Level; lvl != ShedNominal {
		t.Fatalf("level after 9 calm samples: %v, want nominal", lvl)
	}
	resp = srv.Match(Request{Graph: g, Spec: Spec{Seed: 4, Refine: RefineExact}})
	if resp.Err != nil || resp.Degraded != "" || !resp.Refined {
		t.Fatalf("post-recovery request: err=%v degraded=%q refined=%v, want full service",
			resp.Err, resp.Degraded, resp.Refined)
	}

	st := srv.Stats()
	if st.Shed != 2 {
		t.Fatalf("stats: %d shed, want 2", st.Shed)
	}
	if st.Degraded != 1 {
		t.Fatalf("stats: %d degraded, want 1", st.Degraded)
	}

	srv.Close()
	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline
	})
}

// TestProtectPriorityShedOrder pins the admission ladder's order: at
// Shedding only low priority is refused; at Critical everything below
// high is.
func TestProtectPriorityShedOrder(t *testing.T) {
	g := RandomER(200, 200, 3, 1)
	f := newFakeLoad()
	srv := NewServerConfig(&Options{ScalingIterations: 2, Workers: 1},
		ServerConfig{Watchdog: f.config(0.5)})
	defer srv.Close()

	// busy 0.6 / limit 0.5 = utilization 1.2 — Shedding, not Critical.
	f.heat(t, srv, 0.6, ShedShedding)
	if resp := srv.Match(Request{Graph: g, Spec: Spec{Seed: 1}, Priority: PriorityLow}); !errors.Is(resp.Err, ErrShed) {
		t.Fatalf("low at shedding: %v, want ErrShed", resp.Err)
	}
	if resp := srv.Match(Request{Graph: g, Spec: Spec{Seed: 1}}); resp.Err != nil {
		t.Fatalf("normal at shedding: %v, want served", resp.Err)
	}

	// busy 0.7 = utilization 1.4 — Critical.
	f.heat(t, srv, 0.7, ShedCritical)
	if resp := srv.Match(Request{Graph: g, Spec: Spec{Seed: 2}}); !errors.Is(resp.Err, ErrShed) {
		t.Fatalf("normal at critical: %v, want ErrShed", resp.Err)
	}
	if resp := srv.Match(Request{Graph: g, Spec: Spec{Seed: 2}, Priority: PriorityHigh}); resp.Err != nil {
		t.Fatalf("high at critical: %v, want served", resp.Err)
	}
}

// TestProtectDegradedQualityBound: degraded answers still satisfy the
// paper's heuristic quality bound, and the provenance marker records the
// full downgrade. On a degree-1 (diagonal) graph every heuristic finds
// the perfect matching, so the bound check is exact and deterministic.
func TestProtectDegradedQualityBound(t *testing.T) {
	const n = 500
	edges := make([][2]int, n)
	for i := range edges {
		edges[i] = [2]int{i, i}
	}
	g, err := FromEdges(n, n, edges)
	if err != nil {
		t.Fatal(err)
	}

	f := newFakeLoad()
	srv := NewServerConfig(&Options{ScalingIterations: 2, Workers: 1},
		ServerConfig{Watchdog: f.config(0.5)})
	defer srv.Close()
	// busy 0.52 / limit 0.5 = utilization 1.04 — Degraded: everything is
	// served, everything expensive is downgraded.
	f.heat(t, srv, 0.52, ShedDegraded)

	resp := srv.Match(Request{Graph: g,
		Spec: Spec{Seed: 7, Refine: RefineExact, Ensemble: 8}})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if want := "refine:exact->none,best_of:8->2"; resp.Degraded != want {
		t.Fatalf("degraded marker %q, want %q", resp.Degraded, want)
	}
	if resp.Matching.Size != n {
		t.Fatalf("degraded matching size %d, want %d (perfect on a diagonal graph)", resp.Matching.Size, n)
	}
	if resp.Refined {
		t.Fatal("refinement reported despite being degraded away")
	}
	if resp.Candidates > 2 {
		t.Fatalf("%d candidates ran, want <= 2 (capped ensemble)", resp.Candidates)
	}
}

// TestProtectDegradeSpecLadder unit-tests the pure downgrade mapping.
func TestProtectDegradeSpecLadder(t *testing.T) {
	full := Spec{Refine: RefineExact, Ensemble: 8, Target: 0.9}
	cases := []struct {
		lvl      watchdog.Level
		in       Spec
		wantMark string
		wantK    int
	}{
		{watchdog.Nominal, full, "", 8},
		{watchdog.Degraded, full, "refine:exact->none,best_of:8->2", 2},
		{watchdog.Shedding, full, "refine:exact->none,best_of:8->1,target:dropped", 1},
		{watchdog.Critical, full, "refine:exact->none,best_of:8->1,target:dropped", 1},
		{watchdog.Critical, Spec{}, "", 0},
		{watchdog.Degraded, Spec{Ensemble: 2}, "", 2},
	}
	for _, c := range cases {
		got, mark := degradeSpec(c.in, c.lvl)
		if mark != c.wantMark {
			t.Errorf("degradeSpec(%+v, %v) marker %q, want %q", c.in, c.lvl, mark, c.wantMark)
		}
		if got.Ensemble != c.wantK {
			t.Errorf("degradeSpec(%+v, %v) ensemble %d, want %d", c.in, c.lvl, got.Ensemble, c.wantK)
		}
		if c.lvl >= watchdog.Degraded && got.Refine != RefineNone {
			t.Errorf("degradeSpec(%+v, %v) kept refinement %v", c.in, c.lvl, got.Refine)
		}
	}
}

// TestProtectWouldMissDeadline: once service-time history exists, a
// request whose deadline is smaller than the estimated time to an answer
// is rejected at admission with the typed error — before any kernel or
// queue slot is spent on it. Requests with feasible (or no) deadlines are
// unaffected.
func TestProtectWouldMissDeadline(t *testing.T) {
	g := RandomER(300, 300, 3, 1)
	srv := NewServerConfig(&Options{ScalingIterations: 2, Workers: 1}, ServerConfig{MaxBatch: 8})
	defer srv.Close()

	// Cold server: no history, nothing defensible to reject on — even a
	// tight deadline is admitted (and may then time out mid-run, which is
	// the 504 path, not the 429 path).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if resp := srv.Match(Request{Graph: g, Spec: Spec{Seed: 1}, Ctx: ctx}); resp.Err != nil {
		t.Fatalf("cold-server request: %v, want served", resp.Err)
	}

	// Teach the estimator this class costs ~200ms (directly: the EWMA is
	// the unit under test, not the kernel's actual speed).
	for i := 0; i < 5; i++ {
		srv.engine.svc.record(g, Spec{}, 200*time.Millisecond)
	}

	tight, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	resp := srv.Match(Request{Graph: g, Spec: Spec{Seed: 2}, Ctx: tight})
	if !errors.Is(resp.Err, ErrWouldMiss) {
		t.Fatalf("doomed deadline: %v, want ErrWouldMiss", resp.Err)
	}
	var miss *WouldMissError
	if !errors.As(resp.Err, &miss) {
		t.Fatalf("would-miss error is %T, want *WouldMissError", resp.Err)
	}
	if miss.Estimated < 100*time.Millisecond {
		t.Fatalf("estimated %v, want >= 100ms (the taught class cost)", miss.Estimated)
	}
	if miss.Remaining > 10*time.Millisecond {
		t.Fatalf("remaining %v, want <= the 10ms budget", miss.Remaining)
	}

	// A feasible deadline on the same class is admitted and served.
	roomy, cancel3 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel3()
	if resp := srv.Match(Request{Graph: g, Spec: Spec{Seed: 3}, Ctx: roomy}); resp.Err != nil {
		t.Fatalf("feasible deadline: %v, want served", resp.Err)
	}
	// No deadline: never would-miss rejected.
	if resp := srv.Match(Request{Graph: g, Spec: Spec{Seed: 4}}); resp.Err != nil {
		t.Fatalf("no deadline: %v, want served", resp.Err)
	}
	if st := srv.Stats(); st.WouldMiss != 1 {
		t.Fatalf("stats: %d would-miss, want 1", st.WouldMiss)
	}
}

// TestProtectRateLimited: the per-client token bucket rejects the
// over-budget client with a Retry-After while other clients — and
// anonymous requests — pass.
func TestProtectRateLimited(t *testing.T) {
	g := RandomER(200, 200, 3, 1)
	clock := time.Unix(0, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	srv := NewServerConfig(&Options{ScalingIterations: 2, Workers: 1},
		ServerConfig{RatePerClient: 1, RateBurst: 1, Watchdog: WatchdogConfig{Now: now}})
	defer srv.Close()

	if resp := srv.Match(Request{Graph: g, Spec: Spec{Seed: 1}, Client: "alice"}); resp.Err != nil {
		t.Fatalf("first alice request: %v, want served", resp.Err)
	}
	resp := srv.Match(Request{Graph: g, Spec: Spec{Seed: 2}, Client: "alice"})
	if !errors.Is(resp.Err, ErrRateLimited) {
		t.Fatalf("second alice request: %v, want ErrRateLimited", resp.Err)
	}
	var rl *RateLimitError
	if !errors.As(resp.Err, &rl) || rl.Client != "alice" || rl.RetryAfter <= 0 {
		t.Fatalf("rate-limit error %#v, want *RateLimitError{Client: alice, RetryAfter > 0}", resp.Err)
	}
	if resp := srv.Match(Request{Graph: g, Spec: Spec{Seed: 3}, Client: "bob"}); resp.Err != nil {
		t.Fatalf("bob is limited by alice's bucket: %v", resp.Err)
	}
	for i := 0; i < 3; i++ {
		if resp := srv.Match(Request{Graph: g, Spec: Spec{Seed: uint64(4 + i)}}); resp.Err != nil {
			t.Fatalf("anonymous request %d hit the limiter: %v", i, resp.Err)
		}
	}
	// After the advertised wait, alice is served again.
	mu.Lock()
	clock = clock.Add(rl.RetryAfter)
	mu.Unlock()
	if resp := srv.Match(Request{Graph: g, Spec: Spec{Seed: 9}, Client: "alice"}); resp.Err != nil {
		t.Fatalf("alice after waiting Retry-After: %v, want served", resp.Err)
	}
	if st := srv.Stats(); st.RateLimited != 1 {
		t.Fatalf("stats: %d rate-limited, want 1", st.RateLimited)
	}
}

// TestProtectColdScalingCancelRetry is the retryable-cell gate: a 1ms-
// class deadline expiring while a cold graph's shared scaling computes
// must fail that request only — the next request of the graph recomputes
// the scaling (exactly one fresh run), equal bit for bit to a fresh copy's
// first scaling, and succeeds, where the old once-cell stayed poisoned
// with the aborted run forever.
func TestProtectColdScalingCancelRetry(t *testing.T) {
	g := RandomER(2000, 2000, 4, 9)
	opt := &Options{ScalingIterations: 5, Workers: 1}
	// The reference comes first, before the run counter: g itself must
	// reach the server cold.
	want, err := freshCopy(t, g).NewMatcher(opt).Scale()
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	hook := func() {
		// Stall the first scaling run past the request's deadline, so the
		// cancellation hook has fired by the kernel's first checkpoint.
		if runs.Add(1) == 1 {
			time.Sleep(30 * time.Millisecond)
		}
	}
	scaleRunHook.Store(&hook)
	t.Cleanup(func() { scaleRunHook.Store(nil) })

	srv := NewServerConfig(opt, ServerConfig{MaxBatch: 8})
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	resp := srv.Match(Request{Graph: g, Spec: Spec{Algorithm: AlgTwoSided, Seed: 1}, Ctx: ctx})
	if !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("cold request with 1ms deadline: %v, want context.DeadlineExceeded", resp.Err)
	}

	// Retry without a deadline: the cell must not be poisoned — the
	// scaling reruns (exactly once) and the request succeeds.
	resp = srv.Match(Request{Graph: g, Spec: Spec{Algorithm: AlgTwoSided, Seed: 1}})
	if resp.Err != nil {
		t.Fatalf("retry after canceled scaling: %v, want served", resp.Err)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("%d scaling runs, want 2 (one aborted + one fresh)", n)
	}
	got, err := g.NewMatcher(opt).Scale()
	if err != nil {
		t.Fatal(err)
	}
	cmpScalings(t, "retried scaling against a fresh copy's", got, want)
	// The fresh run latched: further requests share it.
	if resp = srv.Match(Request{Graph: g, Spec: Spec{Algorithm: AlgOneSided, Seed: 2}}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("%d scaling runs after warm request, want still 2", n)
	}
}

// TestProtectErrorUnwrap pins the typed errors to their sentinels — the
// contract statusOf in cmd/matchserve maps HTTP codes through.
func TestProtectErrorUnwrap(t *testing.T) {
	if !errors.Is(&ShedError{Level: ShedCritical}, ErrShed) {
		t.Error("*ShedError does not unwrap to ErrShed")
	}
	if !errors.Is(&WouldMissError{}, ErrWouldMiss) {
		t.Error("*WouldMissError does not unwrap to ErrWouldMiss")
	}
	if !errors.Is(&RateLimitError{Client: "c"}, ErrRateLimited) {
		t.Error("*RateLimitError does not unwrap to ErrRateLimited")
	}
	for _, p := range []Priority{PriorityLow, PriorityNormal, PriorityHigh} {
		back, err := ParsePriority(p.String())
		if err != nil || back != p {
			t.Errorf("ParsePriority(%q) = %v, %v; want %v", p.String(), back, err, p)
		}
	}
	if _, err := ParsePriority("urgent"); err == nil {
		t.Error("unknown priority accepted")
	}
}

// TestProtectMatchBatchShedUnderMutationLoad gates the watchdog on
// Server.MatchBatch, the batch surface for callers that do not go through
// HTTP: mixed-priority batches against a DynSession's evolving snapshots
// must, under injected overload, shed low/normal priority in place with
// the typed ShedError while still serving high priority (degraded) — and
// recover to full undegraded service once the load clears. The mutation
// workload churns snapshots (DropGraph on each stale one) concurrently
// with serving, so under -race this also gates the snapshot-swap pattern
// itself.
func TestProtectMatchBatchShedUnderMutationLoad(t *testing.T) {
	g := RandomER(200, 200, 3, 1)
	sess, err := g.NewDynSession(Spec{Algorithm: AlgTwoSided, Seed: 3, Refine: RefineExact}, &Options{})
	if err != nil {
		t.Fatal(err)
	}

	f := newFakeLoad()
	srv := NewServerConfig(&Options{ScalingIterations: 2, Workers: 1},
		ServerConfig{MaxBatch: 8, Watchdog: f.config(0.5)})
	defer srv.Close()

	// The mutation workload: a background goroutine folds batches into the
	// session and republishes the snapshot, evicting the stale one from the
	// server's scale cache — the registry pattern serving layers use.
	var snap atomic.Pointer[Graph]
	snap.Store(sess.Snapshot())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		row, col := 0, 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			old := snap.Load()
			if _, err := sess.Apply([][2]int{{row % sess.Rows(), col % sess.Cols()}},
				[][2]int{{(row + 7) % sess.Rows(), (col + 3) % sess.Cols()}}); err != nil {
				t.Error(err)
				return
			}
			row += 13
			col += 11
			snap.Store(sess.Snapshot())
			srv.DropGraph(old)
		}
	}()

	batch := func(prio Priority) []Response {
		cur := snap.Load()
		return srv.MatchBatch([]Request{
			{Graph: cur, Spec: Spec{Seed: 1, Refine: RefineExact}, Priority: prio},
			{Graph: cur, Spec: Spec{Seed: 2}, Priority: prio},
		})
	}

	// Nominal: everything served, nothing degraded.
	for _, r := range batch(PriorityLow) {
		if r.Err != nil || r.Degraded != "" {
			t.Fatalf("nominal: err=%v degraded=%q, want full service", r.Err, r.Degraded)
		}
	}

	// Overload to Critical: low and normal are shed in place with the
	// typed error; high is served but degraded (exact refine dropped).
	f.heat(t, srv, 0.7, ShedCritical)
	for _, prio := range []Priority{PriorityLow, PriorityNormal} {
		for _, r := range batch(prio) {
			if !errors.Is(r.Err, ErrShed) {
				t.Fatalf("priority %v under critical: err=%v, want ErrShed", prio, r.Err)
			}
			var shed *ShedError
			if !errors.As(r.Err, &shed) || shed.Level != ShedCritical || shed.RetryAfter <= 0 {
				t.Fatalf("priority %v shed error %v, want ShedError{Critical, >0}", prio, r.Err)
			}
		}
	}
	high := batch(PriorityHigh)
	for _, r := range high {
		if r.Err != nil {
			t.Fatalf("high priority under critical: %v, want served", r.Err)
		}
	}
	if high[0].Degraded == "" || high[0].Refined {
		t.Fatalf("critical high-priority exact request: degraded=%q refined=%v, want degraded heuristic",
			high[0].Degraded, high[0].Refined)
	}

	// Recovery: load clears, level decays, full service resumes.
	f.setBusy(0.0)
	for i := 0; i < 10 && srv.Health().Level != ShedNominal; i++ {
		f.tick(srv)
	}
	if lvl := srv.Health().Level; lvl != ShedNominal {
		t.Fatalf("level %v after cooldown, want nominal", lvl)
	}
	for _, r := range batch(PriorityLow) {
		if r.Err != nil || r.Degraded != "" {
			t.Fatalf("post-recovery: err=%v degraded=%q, want full service", r.Err, r.Degraded)
		}
	}

	close(stop)
	wg.Wait()

	st := srv.Stats()
	if st.Shed < 4 || st.Requests == 0 || st.Degraded == 0 {
		t.Fatalf("stats %+v, want shed>=4, requests>0, degraded>0", st)
	}

	// The maintained matching stayed coherent under the concurrent churn.
	if err := sess.Snapshot().ValidateMatching(sess.Matching()); err != nil {
		t.Fatal(err)
	}
	if want := sess.Snapshot().Sprank(); sess.Size() != want {
		t.Fatalf("maintained size %d, want sprank %d", sess.Size(), want)
	}
}
