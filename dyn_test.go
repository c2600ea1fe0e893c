package bipartite

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestDynSessionExactMaintained: an exact session's maintained size
// equals the mutated graph's sprank after every batch, and the
// maintained matching validates against the snapshot.
func TestDynSessionExactMaintained(t *testing.T) {
	g := RandomER(80, 70, 3, 11)
	s, err := g.NewDynSession(Spec{Refine: RefineExact, Seed: 3}, &Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Exact() {
		t.Fatal("refined session must report Exact")
	}
	if s.Size() != g.Sprank() {
		t.Fatalf("initial size %d, want sprank %d", s.Size(), g.Sprank())
	}
	if s.Snapshot() != g {
		t.Fatal("initial snapshot must be the source graph itself")
	}
	batches := [][2][][2]int{ // {inserts, deletes}
		{{{0, 1}, {1, 0}, {5, 60}}, {{0, 0}}},
		{nil, {{5, 60}, {1, 0}}},
		{{{79, 69}, {40, 40}, {40, 41}}, nil},
	}
	for bi, b := range batches {
		res, err := s.Apply(b[0], b[1])
		if err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		snap := s.Snapshot()
		if err := snap.ValidateMatching(s.Matching()); err != nil {
			t.Fatalf("batch %d: maintained matching invalid: %v", bi, err)
		}
		if want := snap.Sprank(); res.MaintainedSize != want {
			t.Fatalf("batch %d: maintained size %d, want sprank %d", bi, res.MaintainedSize, want)
		}
	}
	st := s.Stats()
	if st.Batches != len(batches) {
		t.Fatalf("stats: %d batches, want %d", st.Batches, len(batches))
	}
}

// TestDynSessionNeutralBatch: mutations that do not change the graph
// (re-inserting present edges, deleting absent ones, empty batches)
// keep the snapshot pointer and repair nothing.
func TestDynSessionNeutralBatch(t *testing.T) {
	g := Grid2D(8, 8)
	s, err := g.NewDynSession(Spec{Refine: RefineExact}, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap0 := s.Snapshot()
	// An existing edge and an absent edge, both no-ops.
	res, err := s.Apply([][2]int{{0, 0}}, [][2]int{{0, 63}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 0 || res.Deleted != 0 || res.Augments != 0 {
		t.Fatalf("neutral batch reported work: %+v", res)
	}
	if s.Snapshot() != snap0 {
		t.Fatal("neutral batch must keep the snapshot pointer")
	}
	if res, err = s.Apply(nil, nil); err != nil || res.MaintainedSize != s.Size() {
		t.Fatalf("empty batch: res %+v err %v", res, err)
	}
	// A real mutation invalidates the snapshot.
	res, err = s.Apply(nil, [][2]int{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 1 {
		t.Fatalf("dirty batch: %+v, want Deleted 1", res)
	}
	if s.Snapshot() == snap0 {
		t.Fatal("dirty batch must produce a fresh snapshot")
	}
}

// TestDynSessionHeuristicRepair: heuristic sessions augment only from
// endpoints a batch exposed, and their maintained matching stays valid.
func TestDynSessionHeuristicRepair(t *testing.T) {
	g := RandomER(60, 60, 3, 7)
	s, err := g.NewDynSession(Spec{Algorithm: AlgTwoSided, Seed: 5}, &Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Exact() {
		t.Fatal("unrefined session must not report Exact")
	}
	mt := s.Matching()
	// Find a matched edge to delete: repair must re-augment when possible,
	// and the matching must stay valid either way.
	var di, dj int = -1, -1
	for i, j := range mt.RowMate {
		if j != Unmatched {
			di, dj = i, int(j)
			break
		}
	}
	if di < 0 {
		t.Fatal("initial matching empty")
	}
	res, err := s.Apply(nil, [][2]int{{di, dj}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Freed != 1 {
		t.Fatalf("freed %d, want 1", res.Freed)
	}
	if err := s.Snapshot().ValidateMatching(s.Matching()); err != nil {
		t.Fatal(err)
	}
	// An insert between two matched vertices must not augment; an insert
	// touching an exposed vertex may.
	mt = s.Matching()
	mi, mj := -1, -1
	for i, j := range mt.RowMate {
		if j != Unmatched && !s.HasEdge(i, (int(j)+1)%s.Cols()) && mt.ColMate[(int(j)+1)%s.Cols()] != Unmatched {
			mi, mj = i, (int(j)+1)%s.Cols()
			break
		}
	}
	if mi >= 0 {
		res, err = s.Apply([][2]int{{mi, mj}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Augments != 0 {
			t.Fatalf("insert between matched vertices augmented %d times", res.Augments)
		}
	}
	if err := s.Snapshot().ValidateMatching(s.Matching()); err != nil {
		t.Fatal(err)
	}
}

// TestDynSessionInvalidMutation: an out-of-range mutation rejects the
// whole batch — no prefix applied, session unchanged.
func TestDynSessionInvalidMutation(t *testing.T) {
	g := Grid2D(6, 6)
	s, err := g.NewDynSession(Spec{Refine: RefineExact}, nil)
	if err != nil {
		t.Fatal(err)
	}
	edges0, size0, snap0 := s.Edges(), s.Size(), s.Snapshot()
	for _, bad := range [][2][][2]int{
		{{{0, 0}, {0, 36}}, nil}, // insert out of range (after a valid one)
		{nil, {{0, 0}, {-1, 0}}}, // delete out of range
		{{{36, 0}}, {{0, 0}}},    // insert row out of range
	} {
		if _, err := s.Apply(bad[0], bad[1]); !errors.Is(err, ErrInvalidMutation) {
			t.Fatalf("bad batch %v: err %v, want ErrInvalidMutation", bad, err)
		}
		if s.Edges() != edges0 || s.Size() != size0 || s.Snapshot() != snap0 {
			t.Fatal("rejected batch mutated the session")
		}
	}
}

// TestDynSessionReusesGraphScaling: opening a dynamic session on a graph a
// Server has read, at the Server's iteration count, runs no scaling: the
// session's initial run takes the Graph's scaling, the one the Server
// served.
func TestDynSessionReusesGraphScaling(t *testing.T) {
	g := RandomER(2000, 2000, 4, 31)
	opt := &Options{ScalingIterations: 5}
	scales := countScaleRuns(t)
	srv := NewServerConfig(opt, ServerConfig{MaxBatch: 8})
	defer srv.Close()
	if resp := srv.Match(Request{Graph: g, Spec: Spec{Seed: 1}}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if n := scales.Load(); n != 1 {
		t.Fatalf("one Server read of a fresh graph: %d scaling runs, want 1", n)
	}
	if _, err := g.NewDynSession(Spec{Seed: 2}, opt); err != nil {
		t.Fatal(err)
	}
	if n := scales.Load() - 1; n != 0 {
		t.Fatalf("NewDynSession on a served graph: %d scaling runs, want 0", n)
	}
	if _, err := g.NewMatcher(opt).Scale(); err != nil {
		t.Fatal(err)
	}
	if n := scales.Load() - 1; n != 0 {
		t.Fatalf("Matcher.Scale on a served graph: %d scaling runs, want 0", n)
	}
}

// TestDynScaleInvalidationOncePerDirtyBatch is the shared-scaling
// coherence gate for mutable graphs: a dirty batch makes a new snapshot
// Graph, whose first match scales it exactly once; further matches share
// that scaling, and the old snapshot keeps its own. The session opens at 0
// iterations, a count the server does not use, so the server's first
// match of the initial snapshot scales it.
func TestDynScaleInvalidationOncePerDirtyBatch(t *testing.T) {
	g := RandomER(300, 300, 4, 21)
	s, err := g.NewDynSession(Spec{Refine: RefineExact, Seed: 2}, &Options{})
	if err != nil {
		t.Fatal(err)
	}
	scales := countScaleRuns(t)
	srv := NewServerConfig(&Options{ScalingIterations: 5}, ServerConfig{MaxBatch: 16})
	defer srv.Close()

	if resp := srv.Match(Request{Graph: s.Snapshot(), Spec: Spec{Seed: 1}}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if n := scales.Load(); n != 1 {
		t.Fatalf("cold graph: %d scaling runs, want 1", n)
	}

	// Dirty batch: snapshot identity changes; the serving layer drops the
	// old snapshot and the next match scales the new one exactly once.
	old := s.Snapshot()
	if _, err := s.Apply([][2]int{{0, 299}, {299, 0}}, [][2]int{{0, int(s.Matching().RowMate[0])}}); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap == old {
		t.Fatal("dirty batch kept the snapshot pointer")
	}
	srv.DropGraph(old)
	for k := 0; k < 4; k++ {
		if resp := srv.Match(Request{Graph: snap, Spec: Spec{Seed: uint64(k + 1)}}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	if n := scales.Load(); n != 2 {
		t.Fatalf("after dirty batch: %d scaling runs, want exactly 2 (one per dirty batch)", n)
	}
	if resp := srv.Match(Request{Graph: old, Spec: Spec{Seed: 5}}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if n := scales.Load(); n != 2 {
		t.Fatalf("old snapshot after DropGraph: %d scaling runs, want still 2", n)
	}

	// Matching-neutral batch: same snapshot pointer, nothing to drop, the
	// warm cell keeps serving — zero additional rescales.
	if _, err := s.Apply([][2]int{{0, 299}}, [][2]int{{1, 299}}); err != nil { // both no-ops
		t.Fatal(err)
	}
	if s.Snapshot() != snap {
		t.Fatal("neutral batch changed the snapshot pointer")
	}
	for k := 0; k < 3; k++ {
		if resp := srv.Match(Request{Graph: s.Snapshot(), Spec: Spec{Seed: uint64(10 + k)}}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	if n := scales.Load(); n != 2 {
		t.Fatalf("after neutral batch: %d scaling runs, want still 2", n)
	}
}

// TestDynScaleColdCancelRetryMutated extends the PR 6 retryable-cell
// gate to mutated graphs: a deadline expiring while the fresh snapshot's
// cold scaling computes fails that request only — the snapshot's next
// request rescales once and succeeds.
func TestDynScaleColdCancelRetryMutated(t *testing.T) {
	g := RandomER(2000, 2000, 4, 13)
	s, err := g.NewDynSession(Spec{Algorithm: AlgOneSided, Seed: 4}, &Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([][2]int{{0, 1999}, {1999, 0}, {7, 7}}, nil); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap == g {
		t.Fatal("mutation kept the snapshot pointer")
	}

	// The deadline leaves the request ample time to reach the scaling even
	// on a loaded host; the first scaling run then blocks until the
	// deadline has passed, so the cancellation hook has fired by the
	// kernel's first checkpoint.
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	var runs atomic.Int64
	hook := func() {
		if runs.Add(1) == 1 {
			<-ctx.Done()
		}
	}
	scaleRunHook.Store(&hook)
	t.Cleanup(func() { scaleRunHook.Store(nil) })

	srv := NewServerConfig(&Options{ScalingIterations: 5, Workers: 1}, ServerConfig{MaxBatch: 8})
	defer srv.Close()
	resp := srv.Match(Request{Graph: snap, Spec: Spec{Seed: 1}, Ctx: ctx})
	if !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("cold mutated snapshot with an expiring deadline: %v, want context.DeadlineExceeded", resp.Err)
	}
	resp = srv.Match(Request{Graph: snap, Spec: Spec{Seed: 1}})
	if resp.Err != nil {
		t.Fatalf("retry after canceled scaling on mutated graph: %v, want served", resp.Err)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("%d scaling runs, want 2 (one aborted + one fresh)", n)
	}
	if resp = srv.Match(Request{Graph: snap, Spec: Spec{Seed: 2}}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("%d scaling runs after warm request, want still 2", n)
	}
}
