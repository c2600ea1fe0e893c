package main

import (
	"reflect"
	"testing"

	"repro/internal/sparse"
)

func sameCSR(a, b *sparse.CSR) bool {
	return a.RowsN == b.RowsN && a.ColsN == b.ColsN && reflect.DeepEqual(a.Ptr, b.Ptr) &&
		reflect.DeepEqual(a.Idx, b.Idx) && reflect.DeepEqual(a.Val, b.Val)
}

// TestOfflineInputsArePureFunctionOfSeed checks that the offline graphs
// depend on the seed and on nothing else.
func TestOfflineInputsArePureFunctionOfSeed(t *testing.T) {
	for name, w := range offlineWorkloads {
		a, b, c := w.graphs(7), w.graphs(7), w.graphs(8)
		differs := false
		for i := range a {
			if !sameCSR(a[i].a, b[i].a) {
				t.Errorf("%s/%s: two generations with seed 7 differ", name, a[i].name)
			}
			differs = differs || !sameCSR(a[i].a, c[i].a)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generate the same graphs", name)
		}
	}
}

// serveInputs generates a serving workload's graphs and the requests of
// a warm-up, an open and a serial phase, as a run does.
func serveInputs(t *testing.T, w serveWorkload, seed uint64) ([]*serveGraph, *stream, []request) {
	t.Helper()
	gs, err := w.graphs(seed)
	if err != nil {
		t.Fatal(err)
	}
	st := newStream(seed, gs, w.block)
	reqs := st.open(100, w.rate)
	reqs = append(reqs, st.open(300, w.rate)...)
	reqs = append(reqs, st.serial(50)...)
	return gs, st, reqs
}

// TestServeInputsArePureFunctionOfSeed checks that the registered graphs
// and the request streams, patches included, depend on the seed and on
// nothing else.
func TestServeInputsArePureFunctionOfSeed(t *testing.T) {
	for name, w := range serveWorkloads {
		gsA, stA, reqsA := serveInputs(t, w, 7)
		gsB, stB, reqsB := serveInputs(t, w, 7)
		gsC, _, reqsC := serveInputs(t, w, 8)
		for i := range gsA {
			if !sameCSR(gsA[i].a, gsB[i].a) {
				t.Errorf("%s: graph %d differs between two generations with seed 7", name, i)
			}
		}
		if !reflect.DeepEqual(reqsA, reqsB) {
			t.Errorf("%s: request streams with seed 7 differ", name)
		}
		if !reflect.DeepEqual(stA.patches, stB.patches) {
			t.Errorf("%s: patch batches with seed 7 differ", name)
		}
		if sameCSR(gsA[0].a, gsC[0].a) || reflect.DeepEqual(reqsA, reqsC) {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", name)
		}
	}
}

// TestStreamKeepsMixComposition checks that every phase holds whole blocks
// of the mix, so the share of each request kind and graph is the same in
// every run whatever the seed.
func TestStreamKeepsMixComposition(t *testing.T) {
	for name, w := range serveWorkloads {
		gs, _, _ := serveInputs(t, w, 3)
		want := map[slot]int{}
		for _, s := range w.block(gs) {
			want[s]++
		}
		st := newStream(11, gs, w.block)
		reqs := st.open(1, w.rate) // rounds up to one whole block
		got := map[slot]int{}
		for _, r := range reqs {
			got[slot{r.kind, r.graph}]++
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: one phase holds %v, want the block %v", name, got, want)
		}
	}
}

// TestPatchesTouchEachEdgeOnce checks the property the write-graph checks
// rely on: no two batches insert or delete the same edge, so batches
// commute and any set of applied batches defines one edge set.
func TestPatchesTouchEachEdgeOnce(t *testing.T) {
	_, st, _ := serveInputs(t, serveWorkloads["serve-routed-rw"], 5)
	if len(st.patches) == 0 {
		t.Fatal("serve-routed-rw generated no patches")
	}
	seen := map[[3]int32]bool{}
	for _, p := range st.patches {
		if len(p.ins) != patchEdges || len(p.del) != patchEdges {
			t.Fatalf("batch with %d inserts and %d deletes, want %d each", len(p.ins), len(p.del), patchEdges)
		}
		for _, e := range append(append([][2]int32(nil), p.ins...), p.del...) {
			k := [3]int32{int32(p.graph), e[0], e[1]}
			if seen[k] {
				t.Fatalf("edge %v of graph %d touched by two batches", e, p.graph)
			}
			seen[k] = true
		}
	}
}
