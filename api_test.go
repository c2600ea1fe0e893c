package bipartite

import (
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dm"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/sparse"
)

func TestQuickstartFlow(t *testing.T) {
	g := RandomER(5000, 5000, 4, 42)
	res, err := g.Match(Spec{Algorithm: AlgTwoSided}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ValidateMatching(res.Matching); err != nil {
		t.Fatal(err)
	}
	if q := g.Quality(res.Matching); q < 0.85 {
		t.Fatalf("two-sided quality %v below expectations", q)
	}
	one, err := g.Match(Spec{Algorithm: AlgOneSided}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ValidateMatching(one.Matching); err != nil {
		t.Fatal(err)
	}
	if q := g.Quality(one.Matching); q < 0.632 {
		t.Fatalf("one-sided quality %v below guarantee", q)
	}
}

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(2, 2, []int{0, 1, 2}, []int32{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewGraph(2, 2, []int{0, 1}, []int32{0}); err == nil {
		t.Fatal("bad ptr accepted")
	}
	// Unsorted rows get sorted.
	g, err := NewGraph(1, 3, []int{0, 3}, []int32{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	nb := g.Neighbors(0)
	if nb[0] != 0 || nb[1] != 1 || nb[2] != 2 {
		t.Fatalf("rows not sorted: %v", nb)
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(2, 2, [][2]int{{0, 0}, {1, 1}, {0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 2 {
		t.Fatalf("edges %d want 2 after dedupe", g.Edges())
	}
	if !g.HasEdge(0, 0) || g.HasEdge(0, 1) {
		t.Fatal("edge membership wrong")
	}
	if _, err := FromEdges(2, 2, [][2]int{{5, 0}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestAccessors(t *testing.T) {
	g := Grid2D(10, 12)
	if g.Rows() != 120 || g.Cols() != 120 {
		t.Fatal("dims")
	}
	if g.Degree(0) != 3 {
		t.Fatal("degree")
	}
	if g.AvgDegree() <= 0 || g.DegreeVariance() < 0 {
		t.Fatal("stats")
	}
	rows, cols, ptr, idx := g.CSR()
	if rows != 120 || cols != 120 || len(ptr) != 121 || len(idx) != g.Edges() {
		t.Fatal("CSR accessor wrong")
	}
}

func TestSprankCached(t *testing.T) {
	g := RandomER(300, 300, 2, 7)
	s1 := g.Sprank()
	s2 := g.Sprank()
	if s1 != s2 {
		t.Fatal("sprank changed between calls")
	}
	max := g.MaximumMatching(nil)
	if max.Size != s1 {
		t.Fatal("MaximumMatching size != Sprank")
	}
	if err := g.ValidateMatching(max); err != nil {
		t.Fatal(err)
	}
	// Sprank is MaximumMatching's size; the oracle is a separate
	// Hopcroft–Karp run.
	if want := exact.Sprank(g.a); s1 != want {
		t.Fatalf("Sprank %d, exact.Sprank %d", s1, want)
	}
}

func TestJumpStartReducesWork(t *testing.T) {
	g := FullyIndecomposable(3000, 2, 5)
	res, err := g.Match(Spec{Algorithm: AlgTwoSided, Seed: 3}, &Options{ScalingIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	full := g.MaximumMatching(nil)
	warm := g.MaximumMatching(res.Matching)
	if full.Size != warm.Size {
		t.Fatalf("warm-start result %d != cold %d", warm.Size, full.Size)
	}
	// A cold solve starts with every row free.
	freeCold, freeWarm := g.Rows(), 0
	for _, j := range res.Matching.RowMate {
		if j == Unmatched {
			freeWarm++
		}
	}
	if freeWarm >= freeCold {
		t.Fatalf("jump-start should reduce free rows: warm %d cold %d", freeWarm, freeCold)
	}
	if err := g.ValidateMatching(warm); err != nil {
		t.Fatal(err)
	}
}

// orientedRefinement is the reference for a refinement of g by engine ref
// from init: the internal/exact refiner run directly, from the rows when
// g has at least as many non-isolated columns as rows, and otherwise on
// g's transpose from the mirrored init, mirrored back.
func orientedRefinement(g *Graph, ref Refinement, init *Matching) *Matching {
	a, at := g.a, g.transpose()
	cols := liveColsFewer(a)
	if cols {
		a, at, init = at, a, mirrored(init)
	}
	var mt *Matching
	switch ref {
	case RefinePushRelabel:
		mt = exact.PushRelabel(a, init)
	case RefineGraft:
		r := exact.NewGraftRefiner(a, init)
		r.SetTranspose(at)
		mt = r.Run()
	default:
		mt = exact.HopcroftKarp(a, init)
	}
	if cols {
		mt = mirrored(mt)
	}
	return mt
}

// TestMaximumMatchingEngine pins the one exact entry point. From a cold
// start and from each cardinality Algorithm's warm start, MaximumMatching
// returns a valid, König-certified matching of size Sprank(), leaves init
// untouched, and returns the mates of the engine RefineExact picks run
// from the same init and search side (orientedRefinement): Hopcroft–Karp
// below graftAutoEdges, the graft engine at or above it. rankdef-600
// searches from its columns.
func TestMaximumMatchingEngine(t *testing.T) {
	type instance = struct {
		name string
		g    *Graph
	}
	graphs := append(specConformanceGraphs(),
		instance{"rankdef-600", newGraph(gen.RankDeficient(600, 90, 4, 3))},
		instance{"grid3d-12", Grid3D(12, 12, 12, false)},
	)
	if !liveColsFewer(graphs[len(graphs)-2].g.a) {
		t.Fatal("rankdef-600 has no fewer non-isolated columns than rows")
	}
	algs := []Algorithm{AlgTwoSided, AlgOneSided, AlgKarpSipser, AlgKarpSipserParallel, AlgCheapEdge, AlgCheapVertex}
	check := func(graft bool) {
		for _, tc := range graphs {
			g := tc.g
			inits := []*Matching{nil}
			for _, alg := range algs {
				res, err := g.Match(Spec{Algorithm: alg, Seed: 3}, &Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				inits = append(inits, res.Matching)
			}
			for k, init := range inits {
				label := tc.name + " cold"
				var before *Matching
				if init != nil {
					label = tc.name + " " + algs[k-1].String()
					before = cloneMatching(init)
				}
				got := g.MaximumMatching(init)
				if err := g.ValidateMatching(got); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !g.CertifyMaximum(got) || got.Size != g.Sprank() {
					t.Fatalf("%s: size %d, certified %v, want certified sprank %d",
						label, got.Size, g.CertifyMaximum(got), g.Sprank())
				}
				if init != nil {
					cmpMates(t, label+" init", init, before)
				}
				ref := RefineExact
				if graft {
					ref = RefineGraft
				}
				cmpMates(t, label, got, orientedRefinement(g, ref, init))
			}
		}
	}
	check(false)
	defer func(old int) { graftAutoEdges = old }(graftAutoEdges)
	graftAutoEdges = 1 // every instance now takes the graft engine
	check(true)
}

func TestOptionsDefaults(t *testing.T) {
	var o *Options
	v := o.normalized()
	if v.ScalingIterations != 5 {
		t.Fatalf("nil options normalized to %+v", v)
	}
	v = (&Options{ScalingIterations: -1}).normalized()
	if v.ScalingIterations != 5 {
		t.Fatal("negative iterations should default")
	}
	v = (&Options{ScalingIterations: 0}).normalized()
	if v.ScalingIterations != 0 {
		t.Fatal("explicit zero iterations must be honored")
	}
}

func TestScaleDirect(t *testing.T) {
	g := FullyIndecomposable(500, 2, 9)
	sc, err := g.NewMatcher(&Options{ScalingIterations: 20}).Scale()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Iterations != 20 || len(sc.History) != 21 {
		t.Fatalf("iters %d history %d", sc.Iterations, len(sc.History))
	}
	if sc.Error >= sc.History[0] {
		t.Fatal("scaling error did not decrease")
	}
}

func TestKarpSipserBaseline(t *testing.T) {
	g := HardForKarpSipser(320, 16)
	ksRes, err := g.Match(Spec{Algorithm: AlgKarpSipser, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mt, st := ksRes.Matching, ksRes.KSStats
	if err := g.ValidateMatching(mt); err != nil {
		t.Fatal(err)
	}
	if st.Phase1Matches != 0 {
		t.Fatal("bad case should have empty phase 1")
	}
	if g.Quality(mt) > 0.95 {
		t.Fatalf("KS quality %v suspiciously high on k=16 bad case", g.Quality(mt))
	}
	res, err := g.Match(Spec{Algorithm: AlgTwoSided}, &Options{ScalingIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if g.Quality(res.Matching) < g.Quality(mt) {
		t.Fatal("TwoSided should beat KS on the bad case")
	}
}

func TestCheapBaselines(t *testing.T) {
	g := RandomER(1000, 1000, 3, 11)
	sp := g.Sprank()
	for _, alg := range []Algorithm{AlgCheapEdge, AlgCheapVertex} {
		res, err := g.Match(Spec{Algorithm: alg, Seed: 3}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.ValidateMatching(res.Matching); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if 2*res.Matching.Size < sp {
			t.Fatalf("%s: below half guarantee", alg)
		}
	}
}

func TestDulmageMendelsohnAPI(t *testing.T) {
	g := RandomER(200, 260, 2, 13)
	c := g.DulmageMendelsohn()
	if c.HR+c.SR+c.VR != 200 || c.HC+c.SC+c.VC != 260 {
		t.Fatal("DM part sizes inconsistent")
	}
}

// TestDulmageMendelsohnSearchSide: DulmageMendelsohn decomposes from a
// maximum matching found on either search side, so its parts must equal
// those of a cold row-side Hopcroft–Karp matching, vertex by vertex, on a
// graph whose rows carry the deficiency and on its transpose.
func TestDulmageMendelsohnSearchSide(t *testing.T) {
	rd := gen.RankDeficient(600, 90, 4, 3)
	for _, a := range []*sparse.CSR{rd, rd.Transpose()} {
		g := newGraph(a)
		got := g.DulmageMendelsohn()
		want := dm.Decompose(a, a.Transpose(), nil)
		if got.HR != want.HR || got.HC != want.HC || got.SR != want.SR ||
			got.SC != want.SC || got.VR != want.VR || got.VC != want.VC {
			t.Fatalf("%dx%d: parts H %d/%d S %d/%d V %d/%d, want H %d/%d S %d/%d V %d/%d",
				a.RowsN, a.ColsN, got.HR, got.HC, got.SR, got.SC, got.VR, got.VC,
				want.HR, want.HC, want.SR, want.SC, want.VR, want.VC)
		}
		if !slices.Equal(got.RowPart, want.RowPart) || !slices.Equal(got.ColPart, want.ColPart) {
			t.Fatalf("%dx%d: a vertex changed part", a.RowsN, a.ColsN)
		}
		if got.Matching.Size != want.Matching.Size || !g.CertifyMaximum(got.Matching) {
			t.Fatalf("%dx%d: decomposed from a matching of size %d, sprank %d",
				a.RowsN, a.ColsN, got.Matching.Size, want.Matching.Size)
		}
	}
}

func TestMatrixMarketRoundTripAPI(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.mtx")
	g := RandomER(100, 80, 3, 17)
	if err := g.WriteMatrixMarket(path); err != nil {
		t.Fatal(err)
	}
	h, err := ReadMatrixMarket(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.Rows() != 100 || h.Cols() != 80 || h.Edges() != g.Edges() {
		t.Fatal("round trip changed graph")
	}
}

func TestValidateMatchingRejectsCorrupt(t *testing.T) {
	g := RandomER(50, 50, 3, 19)
	mt := g.MaximumMatching(nil)
	good := *mt
	if err := g.ValidateMatching(&good); err != nil {
		t.Fatal(err)
	}
	// Corrupt: size lies.
	bad := *mt
	bad.Size++
	if err := g.ValidateMatching(&bad); err == nil {
		t.Fatal("size corruption accepted")
	}
	// Corrupt: break mutual consistency.
	bad2 := *mt
	bad2.RowMate = append([]int32(nil), mt.RowMate...)
	for i, j := range bad2.RowMate {
		if j != Unmatched {
			bad2.RowMate[i] = Unmatched
			break
		}
	}
	if err := g.ValidateMatching(&bad2); err == nil {
		t.Fatal("inconsistent mates accepted")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	g := RandomER(2000, 2000, 4, 23)
	a, err := g.Match(Spec{Algorithm: AlgTwoSided, Seed: 9}, &Options{ScalingIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Match(Spec{Algorithm: AlgTwoSided, Seed: 9}, &Options{ScalingIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Matching.Size != b.Matching.Size {
		t.Fatalf("same seed gave sizes %d and %d", a.Matching.Size, b.Matching.Size)
	}
	cmpMates(t, "two-sided rerun", b.Matching, a.Matching)
	// One-sided: the set of chosen columns (hence the size) and the row
	// that keeps each contended column are deterministic.
	one1, _ := g.Match(Spec{Algorithm: AlgOneSided, Seed: 9}, &Options{})
	one2, _ := g.Match(Spec{Algorithm: AlgOneSided, Seed: 9}, &Options{})
	if one1.Matching.Size != one2.Matching.Size {
		t.Fatalf("one-sided size not deterministic: %d vs %d",
			one1.Matching.Size, one2.Matching.Size)
	}
	for j := range one1.Matching.ColMate {
		if (one1.Matching.ColMate[j] == Unmatched) != (one2.Matching.ColMate[j] == Unmatched) {
			t.Fatal("one-sided chosen-column set not deterministic")
		}
	}
	cmpMates(t, "one-sided rerun", one2.Matching, one1.Matching)
}

func TestGeneratorsViaAPI(t *testing.T) {
	gens := map[string]*Graph{
		"complete": Complete(50),
		"hardks":   HardForKarpSipser(64, 4),
		"grid2d":   Grid2D(8, 8),
		"grid3d":   Grid3D(4, 4, 4, false),
		"road":     RoadNetwork(1000, 2.2, 1),
		"powerlaw": PowerLaw(500, 2, 1.5, 100, 1),
		"banded":   Banded(100, 0, -1, 1),
		"fi":       FullyIndecomposable(100, 2, 1),
		"saddle":   SaddlePoint(100, 30, 2, 1),
		"er":       RandomER(100, 100, 3, 1),
	}
	for name, g := range gens {
		if g.Rows() <= 0 || g.Edges() <= 0 {
			t.Errorf("%s: degenerate graph", name)
		}
		mt := g.MaximumMatching(nil)
		if err := g.ValidateMatching(mt); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestHeuristicsQualityProperty(t *testing.T) {
	f := func(seed uint64, d uint8) bool {
		g := RandomER(400, 400, float64(d%4)+2, seed)
		res, err := g.Match(Spec{Algorithm: AlgTwoSided, Seed: seed + 1}, &Options{ScalingIterations: 5})
		if err != nil {
			return false
		}
		if g.ValidateMatching(res.Matching) != nil {
			return false
		}
		// Sparse ER around d=2..5: two-sided stays comfortably above 0.8.
		return g.Quality(res.Matching) > 0.8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
