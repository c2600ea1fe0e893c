package undirected

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

func opts(workers int, seed uint64) Options {
	return Options{Workers: workers, Policy: par.Dynamic, Chunk: 64, Seed: seed}
}

// randomUndirected builds a symmetric ER pattern without self loops.
func randomUndirected(n int, avgDeg float64, seed uint64) *Graph {
	rng := xrand.New(seed)
	m := int(avgDeg * float64(n) / 2)
	entries := make([]sparse.Coord, 0, 2*m)
	for k := 0; k < m; k++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		entries = append(entries, sparse.Coord{I: u, J: v}, sparse.Coord{I: v, J: u})
	}
	a, err := sparse.FromCOO(n, n, entries, false)
	if err != nil {
		panic(err)
	}
	g, err := New(a)
	if err != nil {
		panic(err)
	}
	return g
}

// bruteMax computes the exact maximum matching of a small general graph
// via bitmask DP — the oracle for KarpSipser1Out exactness.
func bruteMax(n int, adj [][]int32) int {
	memo := make(map[uint32]int)
	var rec func(mask uint32) int
	rec = func(mask uint32) int {
		if mask == 0 {
			return 0
		}
		if v, ok := memo[mask]; ok {
			return v
		}
		// Lowest set vertex.
		u := 0
		for mask&(1<<uint(u)) == 0 {
			u++
		}
		best := rec(mask &^ (1 << uint(u))) // u unmatched
		for _, v := range adj[u] {
			if mask&(1<<uint(v)) != 0 && int(v) != u {
				if got := 1 + rec(mask&^(1<<uint(u))&^(1<<uint(v))); got > best {
					best = got
				}
			}
		}
		memo[mask] = best
		return best
	}
	return rec(uint32(1)<<uint(n) - 1)
}

// choiceAdj converts a choice array to the adjacency of the 1-out graph.
func choiceAdj(choice []int32) [][]int32 {
	n := len(choice)
	adj := make([][]int32, n)
	add := func(u, v int32) {
		for _, w := range adj[u] {
			if w == v {
				return
			}
		}
		adj[u] = append(adj[u], v)
	}
	for u, v := range choice {
		if v != NIL && int(v) != u {
			add(int32(u), v)
			add(v, int32(u))
		}
	}
	return adj
}

func matchSize(match []int32) int {
	s := 0
	for u, v := range match {
		if v != NIL && int(v) > u {
			s++
		}
	}
	return s
}

func TestNewRejectsAsymmetric(t *testing.T) {
	a := sparse.FromDense([][]int{{0, 1}, {0, 0}})
	if _, err := New(a); err == nil {
		t.Fatal("asymmetric pattern accepted")
	}
	b := sparse.FromDense([][]int{{0, 1, 0}, {1, 0, 0}})
	if _, err := New(b); err == nil {
		t.Fatal("non-square pattern accepted")
	}
}

// TestKarpSipser1OutExactOnRandomChoices is the undirected analog of the
// bipartite exactness test: the kernel must match the bitmask-DP maximum
// on random functional (1-out) graphs.
func TestKarpSipser1OutExactOnRandomChoices(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 3 + rng.Intn(16) // oracle limit
		choice := make([]int32, n)
		for u := range choice {
			v := rng.Intn(n)
			if v == u {
				choice[u] = NIL
			} else {
				choice[u] = int32(v)
			}
		}
		match := KarpSipser1Out(choice)
		// Validity: mutual partners along choice edges.
		for u, v := range match {
			if v == NIL {
				continue
			}
			if match[v] != int32(u) {
				return false
			}
			if choice[u] != v && choice[v] != int32(u) {
				return false
			}
		}
		return matchSize(match) == bruteMax(n, choiceAdj(choice))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestKarpSipser1OutHandlesOddCycles(t *testing.T) {
	// A directed 5-cycle of choices: maximum matching is 2.
	choice := []int32{1, 2, 3, 4, 0}
	match := KarpSipser1Out(choice)
	if matchSize(match) != 2 {
		t.Fatalf("5-cycle matched %d want 2", matchSize(match))
	}
	// Even 6-cycle: perfect matching 3.
	choice = []int32{1, 2, 3, 4, 5, 0}
	match = KarpSipser1Out(choice)
	if matchSize(match) != 3 {
		t.Fatalf("6-cycle matched %d want 3", matchSize(match))
	}
}

func TestKarpSipser1OutTwoClique(t *testing.T) {
	choice := []int32{1, 0, NIL}
	match := KarpSipser1Out(choice)
	if match[0] != 1 || match[1] != 0 || match[2] != NIL {
		t.Fatalf("2-clique mishandled: %v", match)
	}
}

func TestScaleSymmetricConverges(t *testing.T) {
	g := randomUndirected(500, 6, 3)
	d, err := ScaleSymmetric(g.A, 200, opts(2, 0))
	if err > 0.05 {
		t.Fatalf("symmetric scaling error %v", err)
	}
	for _, v := range d {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("bad scaling factor %v", v)
		}
	}
}

func TestMatchValidAndDecent(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := randomUndirected(5000, 5, seed)
		res := g.Match(5, opts(4, seed))
		if err := g.Validate(res.Match); err != nil {
			t.Fatal(err)
		}
		// On ER graphs with avg degree 5 the maximum matching covers
		// almost all vertices; the 1-out heuristic should land well above
		// the bipartite conjecture's neighborhood.
		frac := 2 * float64(res.Size) / float64(g.N())
		if frac < 0.70 {
			t.Fatalf("matched fraction %v too low", frac)
		}
	}
}

func TestMatchPerfectGraphClasses(t *testing.T) {
	// Even cycle graph C_n: perfect matching exists; heuristic is exact on
	// its own 1-out sample, so it matches at least ~86% in practice. We
	// only require validity plus a sane fraction here, and exactness of
	// the kernel is covered by the oracle test.
	n := 1000
	entries := make([]sparse.Coord, 0, 2*n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		entries = append(entries, sparse.Coord{I: int32(i), J: int32(j)},
			sparse.Coord{I: int32(j), J: int32(i)})
	}
	a, _ := sparse.FromCOO(n, n, entries, false)
	g, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	res := g.Match(3, opts(3, 7))
	if err := g.Validate(res.Match); err != nil {
		t.Fatal(err)
	}
	if frac := 2 * float64(res.Size) / float64(n); frac < 0.6 {
		t.Fatalf("cycle graph fraction %v", frac)
	}
}

// TestMatchSizeDeterministicAcrossWorkers: for a fixed seed the size and
// the mates are the same at every worker count and pool width, scaled and
// unscaled.
func TestMatchSizeDeterministicAcrossWorkers(t *testing.T) {
	g := randomUndirected(3000, 4, 11)
	wide := par.NewPool(4)
	defer wide.Close()
	for _, iters := range []int{0, 3} {
		want := g.Match(iters, opts(1, 42))
		sizes := map[int]bool{}
		for _, pool := range []*par.Pool{nil, wide} {
			for _, w := range []int{1, 2, 4, 8} {
				o := opts(w, 42)
				o.Pool = pool
				res := g.Match(iters, o)
				sizes[res.Size] = true
				for u := range want.Match {
					if res.Match[u] != want.Match[u] {
						t.Fatalf("iters=%d w=%d wide=%v: mate of %d is %d, want %d",
							iters, w, pool != nil, u, res.Match[u], want.Match[u])
					}
				}
			}
		}
		if len(sizes) != 1 {
			t.Fatalf("iters=%d: size varies with workers: %v", iters, sizes)
		}
	}
}

func TestMeshMatching(t *testing.T) {
	// 2-D mesh adjacency is symmetric; even side has a perfect matching.
	a := gen.Mesh2D(40, 40)
	g, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	res := g.Match(5, opts(4, 5))
	if err := g.Validate(res.Match); err != nil {
		t.Fatal(err)
	}
	if frac := 2 * float64(res.Size) / float64(g.N()); frac < 0.7 {
		t.Fatalf("mesh fraction %v", frac)
	}
}

func TestSampleChoicesSkipSelfLoops(t *testing.T) {
	// Vertex 0 has a self loop and one real neighbor.
	entries := []sparse.Coord{{I: 0, J: 0}, {I: 0, J: 1}, {I: 1, J: 0}}
	a, _ := sparse.FromCOO(2, 2, entries, false)
	for seed := uint64(1); seed < 50; seed++ {
		c := SampleChoices(a, nil, opts(1, seed))
		if c[0] != 1 {
			t.Fatalf("self loop sampled: %v", c[0])
		}
	}
}

func TestIsolatedVerticesStayNIL(t *testing.T) {
	a, _ := sparse.FromCOO(4, 4, []sparse.Coord{{I: 0, J: 1}, {I: 1, J: 0}}, false)
	c := SampleChoices(a, nil, opts(2, 1))
	if c[2] != NIL || c[3] != NIL {
		t.Fatalf("isolated vertices sampled: %v", c)
	}
	match := KarpSipser1Out(c)
	if match[2] != NIL || match[3] != NIL {
		t.Fatal("isolated vertices matched")
	}
}
