package bipartite

import (
	"math"
	"testing"
)

func TestUndirectedAPI(t *testing.T) {
	g := RandomUndirected(20000, 5, 3)
	if g.Vertices() != 20000 || g.Edges() == 0 {
		t.Fatal("accessor sanity")
	}
	res := g.Match(&Options{ScalingIterations: 3, Seed: 2})
	if err := g.Validate(res.Mate); err != nil {
		t.Fatal(err)
	}
	if frac := 2 * float64(res.Size) / float64(g.Vertices()); frac < 0.7 {
		t.Fatalf("matched fraction %v too low", frac)
	}
	if res.ScalingError < 0 {
		t.Fatal("negative scaling error")
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
	res := g.Match(nil)
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
