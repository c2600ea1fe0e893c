package bipartite

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/par"
	"repro/internal/undirected"
)

func TestUndirectedAPI(t *testing.T) {
	g := RandomUndirected(20000, 5, 3)
	if g.Vertices() != 20000 || g.Edges() == 0 {
		t.Fatal("accessor sanity")
	}
	res := g.Match(2, &Options{ScalingIterations: 3})
	if err := g.Validate(res.Mate); err != nil {
		t.Fatal(err)
	}
	if frac := 2 * float64(res.Size) / float64(g.Vertices()); frac < 0.7 {
		t.Fatalf("matched fraction %v too low", frac)
	}
	if res.ScalingError < 0 {
		t.Fatal("negative scaling error")
	}
	// Seed 0 means 1, as for Spec.Seed.
	if zero, one := g.Match(0, nil), g.Match(1, nil); !slices.Equal(zero.Mate, one.Mate) {
		t.Fatal("seed 0 does not match seed 1")
	}

	// A width-4 Pool returns the Workers: 1 matching and scaling error.
	pool := NewPool(4)
	defer pool.Close()
	for seed := uint64(2); seed <= 6; seed++ {
		one := g.Match(seed, &Options{ScalingIterations: 3, Workers: 1})
		wide := g.Match(seed, &Options{ScalingIterations: 3, Pool: pool})
		if err := g.Validate(wide.Mate); err != nil {
			t.Fatal(err)
		}
		if wide.Size != one.Size || wide.ScalingError != one.ScalingError {
			t.Fatalf("seed %d, pool width 4: size %d, scaling error %v; Workers: 1 gives %d, %v",
				seed, wide.Size, wide.ScalingError, one.Size, one.ScalingError)
		}
		for v := range one.Mate {
			if wide.Mate[v] != one.Mate[v] {
				t.Fatalf("seed %d, pool width 4: mate of %d is %d, Workers: 1 gives %d",
					seed, v, wide.Mate[v], one.Mate[v])
			}
		}
	}
}

// TestUndirectedMatchScalesOnce: repeated UndirectedGraph.Match calls
// scale the graph once per iteration count and share that scaling, and
// their mates and scaling errors equal, bit for bit, those of a match that
// computes its own scaling (undirected.Graph.Match), at every width.
// Concurrent first calls on a fresh graph agree too.
func TestUndirectedMatchScalesOnce(t *testing.T) {
	g := RandomUndirected(5000, 4, 3)
	runs := countScaleRuns(t)
	pool := NewPool(4)
	defer pool.Close()
	for _, iters := range []int{5, 3, 0, 5, 3} {
		for seed := uint64(1); seed <= 3; seed++ {
			want := g.g.Match(iters, undirected.Options{Workers: 1, Policy: par.Dynamic, Seed: seed})
			for _, opt := range []*Options{
				{ScalingIterations: iters, Workers: 1},
				{ScalingIterations: iters},
				{ScalingIterations: iters, Pool: pool},
			} {
				got := g.Match(seed, opt)
				if !slices.Equal(got.Mate, want.Match) || got.Size != want.Size || got.ScalingError != want.ScaleErr {
					t.Fatalf("iters %d, seed %d, workers %d, pool %v: size %d, scaling error %v; a fresh scaling gives %d, %v",
						iters, seed, opt.Workers, opt.Pool != nil, got.Size, got.ScalingError, want.Size, want.ScaleErr)
				}
			}
		}
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("%d scaling runs over two iteration counts, want 2", n)
	}

	fresh := RandomUndirected(5000, 4, 3)
	want := g.Match(9, &Options{ScalingIterations: 5})
	runs.Store(0)
	var wg sync.WaitGroup
	got := make([]*UndirectedResult, 4)
	for k := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k] = fresh.Match(9, &Options{ScalingIterations: 5, Pool: pool})
		}()
	}
	wg.Wait()
	for k, res := range got {
		if !slices.Equal(res.Mate, want.Mate) || res.ScalingError != want.ScalingError {
			t.Fatalf("concurrent call %d disagrees with the shared scaling's matching", k)
		}
	}
	n := runs.Load()
	if n < 1 || n > int64(len(got)) {
		t.Fatalf("%d scaling runs for %d concurrent first calls", n, len(got))
	}
	if fresh.Match(9, &Options{ScalingIterations: 5}); runs.Load() != n {
		t.Fatal("a call after the first published scaling scaled again")
	}
}

func TestNewUndirectedValidation(t *testing.T) {
	g, err := NewUndirected(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 2 {
		t.Fatalf("edges %d want 2", g.Edges())
	}
	res := g.Match(1, nil)
	if err := g.Validate(res.Mate); err != nil {
		t.Fatal(err)
	}
	if res.Size != 1 {
		t.Fatalf("path P3 matches %d edges want 1", res.Size)
	}
}

func TestKarpSipserParallelAPI(t *testing.T) {
	g := RandomER(10000, 10000, 3, 9)
	res, err := g.Match(Spec{Algorithm: AlgKarpSipserParallel, Seed: 3}, &Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ValidateMatching(res.Matching); err != nil {
		t.Fatal(err)
	}
	if 2*res.Matching.Size < g.Sprank() {
		t.Fatal("below half guarantee")
	}
}

func TestGuaranteeHelpers(t *testing.T) {
	if math.Abs(OneSidedGuarantee(1)-(1-1/math.E)) > 1e-12 {
		t.Fatal("alpha=1 should give 1-1/e")
	}
	// The paper's §3.3 example: alpha = 0.92 -> ≈ 0.6015.
	if v := OneSidedGuarantee(0.92); math.Abs(v-0.6015) > 0.0005 {
		t.Fatalf("alpha=0.92 gives %v want ≈0.6015", v)
	}
	if OneSidedGuarantee(-5) != 0 {
		t.Fatal("negative alpha should clamp to 0")
	}
	if math.Abs(TwoSidedConjecture()-0.8656) > 0.001 {
		t.Fatalf("conjecture constant %v", TwoSidedConjecture())
	}
	// Guarantee is monotone in alpha.
	if OneSidedGuarantee(0.5) >= OneSidedGuarantee(0.9) {
		t.Fatal("guarantee not monotone")
	}
}

func TestCertificateAPI(t *testing.T) {
	g := RandomER(5000, 6000, 3, 21)
	mt := g.MaximumMatching(nil)
	if !g.CertifyMaximum(mt) {
		t.Fatal("maximum matching failed certification")
	}
	rows, cols, size := g.MinimumVertexCover(mt)
	if size != mt.Size {
		t.Fatalf("König violated: cover %d matching %d", size, mt.Size)
	}
	covered := 0
	for i := range rows {
		if rows[i] {
			covered++
		}
	}
	for j := range cols {
		if cols[j] {
			covered++
		}
	}
	if covered != size {
		t.Fatal("cover size miscounted")
	}
	// A heuristic matching must NOT certify unless it happens to be max.
	two, err := g.Match(Spec{Algorithm: AlgTwoSided}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if two.Matching.Size < mt.Size && g.CertifyMaximum(two.Matching) {
		t.Fatal("non-maximum heuristic matching certified")
	}
}

func TestHeuristicHierarchyOnHardInstance(t *testing.T) {
	// The paper's headline comparison on one instance: cheap < KS-family
	// < TwoSided on the adversarial family, with exact on top.
	g := HardForKarpSipser(640, 16)
	quality := func(alg Algorithm, opt *Options) float64 {
		res, err := g.Match(Spec{Algorithm: alg, Seed: 1}, opt)
		if err != nil {
			t.Fatal(err)
		}
		return g.Quality(res.Matching)
	}
	cheapQ := quality(AlgCheapEdge, nil)
	ksQ := quality(AlgKarpSipser, nil)
	ksParQ := quality(AlgKarpSipserParallel, &Options{Workers: 8})
	twoQ := quality(AlgTwoSided, &Options{ScalingIterations: 10})
	if twoQ <= ksQ || twoQ <= cheapQ || twoQ <= ksParQ {
		t.Fatalf("hierarchy violated: cheap=%.3f ks=%.3f kspar=%.3f two=%.3f",
			cheapQ, ksQ, ksParQ, twoQ)
	}
	if twoQ < 0.97 {
		t.Fatalf("two-sided only %.3f on the bad case with 10 iterations", twoQ)
	}
}
