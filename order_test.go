package bipartite

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// TestDegreeOrderBuiltOncePerGraph: the degree orders TwoSided's sampling
// walks are a per-Graph cache, like the transpose, and every Matcher
// installs its graph's orders in its session: one-shot matches, a reused
// Matcher (with a parallel ensemble's child arenas, and a Reset to a
// graph nothing else matches), and batch slots on a wide pool (which
// Reset an arena to a same-shaped graph) build each graph's orders
// exactly once.
func TestDegreeOrderBuiltOncePerGraph(t *testing.T) {
	var builds atomic.Int64
	hook := func() { builds.Add(1) }
	orderBuildHook.Store(&hook)
	defer orderBuildHook.Store(nil)

	g1 := RandomER(900, 900, 4, 5)
	g2 := PowerLaw(800, 2, 2.0, 100, 6)
	g3 := RandomER(700, 600, 3, 7)
	g4 := RandomER(900, 900, 4, 8) // g1's shape
	pool := NewPool(4)
	defer pool.Close()
	opt := &Options{ScalingIterations: 3, Pool: pool}
	check := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	for s := uint64(1); s <= 3; s++ {
		_, err := g1.Match(Spec{Seed: s}, opt)
		check("Graph.Match", err)
	}
	m := g1.NewMatcher(opt)
	for s := uint64(1); s <= 3; s++ {
		_, err := m.Run(Spec{Seed: s})
		check("Matcher.Run", err)
		_, err = m.Run(Spec{Seed: s, Ensemble: 6})
		check("Matcher.Run ensemble", err)
	}
	m.Reset(g3)
	_, err := m.Run(Spec{Seed: 1})
	check("Matcher.Run after Reset", err)
	m.Reset(g1)
	_, err = m.Run(Spec{Seed: 1})
	check("Matcher.Run after Reset back", err)

	var reqs []Request
	for s := uint64(1); s <= 16; s++ {
		reqs = append(reqs,
			Request{Graph: g1, Spec: Spec{Seed: s}},
			Request{Graph: g2, Spec: Spec{Seed: s, Ensemble: 3}},
			Request{Graph: g4, Spec: Spec{Seed: s}})
	}
	for i, resp := range MatchBatch(reqs, opt) {
		if resp.Err != nil {
			t.Fatalf("batch request %d: %v", i, resp.Err)
		}
	}
	if got := builds.Load(); got != 4 {
		t.Fatalf("degree orders built %d times for 4 graphs, want 4", got)
	}
}

// TestSweepLayoutBuiltOnSecondScaling: a Graph packs its sweep layouts on
// its second computed scaling with at least one iteration, once, and never
// for a graph scaled once or a graph with edge values. A Graph keeps its
// scaling per iteration count, so repeated calls at one count compute one
// scaling and build no layout. One Graph.Match builds none; three build
// none either, and the second and third return the first's scaling; a
// fourth at another iteration count, the Graph's second computed scaling,
// builds one, and its scaling, which walks the layouts, equals the same
// count's scaling of a separately built copy of the graph, which walks the
// CSR. A retry after a canceled compute is a second computed scaling too.
// 64 reads of a fresh graph through a Server share one scaling and build
// none; and repeated matches of a weighted graph build none.
func TestSweepLayoutBuiltOnSecondScaling(t *testing.T) {
	var builds atomic.Int64
	hook := func() { builds.Add(1) }
	layoutBuildHook.Store(&hook)
	defer layoutBuildHook.Store(nil)
	pool := NewPool(2)
	defer pool.Close()
	opt := &Options{ScalingIterations: 5, Pool: pool}
	expect := func(what string, want int64) {
		t.Helper()
		if got := builds.Swap(0); got != want {
			t.Fatalf("%s: %d layout builds, want %d", what, got, want)
		}
	}
	sameScaling := func(what string, got, want *Scaling) {
		t.Helper()
		for _, v := range [][2][]float64{
			{got.DR, want.DR}, {got.DC, want.DC}, {got.History, want.History},
			{got.RowSums, want.RowSums}, {got.ColSums, want.ColSums},
		} {
			if !slices.Equal(v[0], v[1]) {
				t.Fatalf("%s: scaling differs", what)
			}
		}
	}

	if _, err := RoadNetwork(20000, 2.1, 1).Match(Spec{Seed: 1}, opt); err != nil {
		t.Fatal(err)
	}
	expect("one Graph.Match", 0)

	g := RoadNetwork(20000, 2.1, 2)
	var first *MatchResult
	for s := uint64(1); s <= 3; s++ {
		res, err := g.Match(Spec{Seed: s}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if s == 1 {
			first = res
			continue
		}
		sameScaling(fmt.Sprintf("Graph.Match %d against the first call", s), res.Scaling, first.Scaling)
	}
	expect("three Graph.Match calls", 0)
	three := &Options{ScalingIterations: 3, Pool: pool}
	res, err := g.Match(Spec{Seed: 4}, three)
	if err != nil {
		t.Fatal(err)
	}
	expect("a Graph.Match at another iteration count", 1)
	ref, err := freshCopy(t, g).Match(Spec{Seed: 4}, three)
	if err != nil {
		t.Fatal(err)
	}
	expect("one Graph.Match of a copy", 0)
	sameScaling("layout sweeps against the copy's CSR sweeps", res.Scaling, ref.Scaling)

	retried := RoadNetwork(20000, 2.1, 3)
	m := retried.NewMatcher(opt)
	m.setCancel(func() bool { return true })
	if _, err := m.Scale(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled scaling: %v, want ErrCanceled", err)
	}
	m.setCancel(nil)
	sc, err := m.Scale()
	if err != nil {
		t.Fatal(err)
	}
	expect("a retry after a canceled scaling", 1)
	want, err := freshCopy(t, retried).NewMatcher(opt).Scale()
	if err != nil {
		t.Fatal(err)
	}
	sameScaling("retried layout sweeps against the copy's CSR sweeps", sc, want)
	expect("one scaling of a copy", 0)

	srv := NewServerConfig(opt, ServerConfig{MaxBatch: 16})
	defer srv.Close()
	fresh := RandomER(3000, 3000, 4, 3)
	for s := uint64(1); s <= 64; s++ {
		if resp := srv.Match(Request{Graph: fresh, Spec: Spec{Seed: s}}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	expect("64 Server reads of a fresh graph", 0)

	weighted := RandomER(3000, 3000, 4, 4).RandomWeights(WeightUniform, 5)
	for s := uint64(1); s <= 3; s++ {
		if _, err := weighted.Match(Spec{Seed: s}, opt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := weighted.Match(Spec{Seed: 4}, three); err != nil {
		t.Fatal(err)
	}
	expect("matches of a weighted graph at two iteration counts", 0)
}

// TestDynSnapshotsFreeDegreeOrders: every PATCH of a served graph makes a
// new snapshot Graph, and matching a snapshot at two iteration counts
// builds its degree orders, keeps one scaling per count and, on the second
// scaling, builds its sweep layouts. They must be freed with the snapshot.
// 2,000 changing batches on a 4k-row graph would keep about 64 MB of
// orders, 512 MB of scalings and 256 MB of layouts alive if anything
// retained them past their Graph; the live heap after a GC must stay
// within 8 MiB of its size after the first snapshot. Like the allocation
// gates, this heap-accounting gate skips under -race, which also makes it
// about ten times slower.
func TestDynSnapshotsFreeDegreeOrders(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting gate; run without -race")
	}
	const n, batches = 4000, 2000
	g := RandomER(n, n, 4, 3)
	opt := &Options{ScalingIterations: 3, Workers: 1}
	opt2 := &Options{ScalingIterations: 2, Workers: 1}
	s, err := g.NewDynSession(Spec{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	heapInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	var base uint64
	for b := 0; b < batches; b++ {
		// Toggle one edge of row b%n per batch, so every batch changes the
		// graph and the next Snapshot is a new Graph.
		i, j := b%n, (b*7919)%n
		ins, del := [][2]int{{i, j}}, [][2]int(nil)
		if s.HasEdge(i, j) {
			ins, del = nil, ins
		}
		if _, err := s.Apply(ins, del); err != nil {
			t.Fatal(err)
		}
		snap := s.Snapshot()
		if _, err := snap.Match(Spec{Seed: uint64(b) + 1}, opt); err != nil {
			t.Fatal(err)
		}
		if _, err := snap.Match(Spec{Seed: uint64(b) + batches + 1}, opt2); err != nil {
			t.Fatal(err)
		}
		if b == 0 {
			base = heapInuse()
		}
	}
	if got := heapInuse(); got > base+8<<20 {
		t.Fatalf("live heap grew from %d to %d bytes over %d snapshots", base, got, batches)
	}
}
