package bipartite

import (
	"runtime"
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
	for i, resp := range matchBatch(reqs, opt) {
		if resp.Err != nil {
			t.Fatalf("batch request %d: %v", i, resp.Err)
		}
	}
	if got := builds.Load(); got != 4 {
		t.Fatalf("degree orders built %d times for 4 graphs, want 4", got)
	}
}

// TestDynSnapshotsFreeDegreeOrders: every PATCH of a served graph makes a
// new snapshot Graph, and matching a snapshot at two iteration counts
// builds its degree orders and keeps one scaling per count. They must be
// freed with the snapshot. 2,000 changing batches on a 4k-row graph would
// keep about 64 MB of orders and 512 MB of scalings alive if anything
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
