package gen

import (
	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/sparse"
)

func validate(t *testing.T, a *sparse.CSR) {
	t.Helper()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !a.HasSortedRows() {
		t.Fatal("rows not sorted/deduped")
	}
}

func TestFull(t *testing.T) {
	a := Full(5)
	validate(t, a)
	if a.NNZ() != 25 {
		t.Fatalf("nnz = %d", a.NNZ())
	}
	for i := 0; i < 5; i++ {
		if a.Degree(i) != 5 {
			t.Fatalf("row %d degree %d", i, a.Degree(i))
		}
	}
	if exact.Sprank(a) != 5 {
		t.Fatal("full matrix must have full sprank")
	}
}

func TestIdentity(t *testing.T) {
	a := Identity(7)
	validate(t, a)
	if a.NNZ() != 7 || exact.Sprank(a) != 7 {
		t.Fatal("identity wrong")
	}
	for i := 0; i < 7; i++ {
		if a.Row(i)[0] != int32(i) {
			t.Fatal("identity off-diagonal")
		}
	}
}

func TestERDeterministicAndBounded(t *testing.T) {
	a := ER(100, 120, 500, 42)
	b := ER(100, 120, 500, 42)
	validate(t, a)
	if !a.Equal(b) {
		t.Fatal("same seed produced different matrices")
	}
	c := ER(100, 120, 500, 43)
	if a.Equal(c) {
		t.Fatal("different seeds produced identical matrices")
	}
	if a.NNZ() > 500 {
		t.Fatalf("nnz %d exceeds requested", a.NNZ())
	}
	if a.NNZ() < 450 { // dedupe removes only ~2% at this density
		t.Fatalf("nnz %d lost too many to dedupe", a.NNZ())
	}
}

func TestERAvgDegClose(t *testing.T) {
	a := ERAvgDeg(1000, 1000, 4, 7)
	validate(t, a)
	if d := a.AvgDegree(); d < 3.8 || d > 4.0 {
		t.Fatalf("avg degree %v want ≈4", d)
	}
}

func TestBadKSStructure(t *testing.T) {
	n, k := 64, 4
	h := n / 2
	a := BadKS(n, k)
	validate(t, a)
	if a.RowsN != n || a.ColsN != n {
		t.Fatal("shape wrong")
	}
	// R1×C1 block full.
	for i := 0; i < h; i++ {
		row := a.Row(i)
		cnt := 0
		for _, j := range row {
			if int(j) < h {
				cnt++
			}
		}
		if cnt != h {
			t.Fatalf("row %d has %d entries in C1, want %d", i, cnt, h)
		}
	}
	// R2×C2 empty.
	for i := h; i < n; i++ {
		for _, j := range a.Row(i) {
			if int(j) >= h && i-h != int(j)-h {
				t.Fatalf("entry (%d,%d) in R2×C2", i, j)
			}
		}
	}
	// Last k rows of R1 are completely full.
	for i := h - k; i < h; i++ {
		if a.Degree(i) != n {
			t.Fatalf("row %d degree %d want %d (full)", i, a.Degree(i), n)
		}
	}
	// Perfect matching exists (the two diagonals).
	if exact.Sprank(a) != n {
		t.Fatalf("sprank %d want %d", exact.Sprank(a), n)
	}
}

func TestBadKSDegreeOneOnlyForKLessEqualOne(t *testing.T) {
	// k=1: column h-1 is full but rows h..n-1 have degree... check via
	// the paper's claim: for k<=1 Karp-Sipser phase 1 consumes the graph;
	// for k>1 there must be no degree-one vertex at all.
	a := BadKS(32, 2)
	at := a.Transpose()
	for i := 0; i < a.RowsN; i++ {
		if a.Degree(i) == 1 {
			t.Fatalf("row %d has degree one with k=2", i)
		}
	}
	for j := 0; j < at.RowsN; j++ {
		if at.Degree(j) == 1 {
			t.Fatalf("col %d has degree one with k=2", j)
		}
	}
}

func TestBadKSPanicsOnBadArgs(t *testing.T) {
	for _, f := range []func(){
		func() { BadKS(33, 2) },
		func() { BadKS(10, 6) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestGrid2DStructure(t *testing.T) {
	a := Grid2D(4, 5)
	validate(t, a)
	if a.RowsN != 20 {
		t.Fatal("size wrong")
	}
	// Interior vertex degree 5, corner degree 3.
	if a.Degree(0) != 3 {
		t.Fatalf("corner degree %d", a.Degree(0))
	}
	if a.Degree(1*5+1) != 5 {
		t.Fatalf("interior degree %d", a.Degree(6))
	}
	if exact.Sprank(a) != 20 {
		t.Fatal("grid with diagonal must have full sprank")
	}
}

func TestGrid3DStencils(t *testing.T) {
	a := Grid3D(3, 3, 3, false)
	validate(t, a)
	center := (1*3+1)*3 + 1
	if a.Degree(center) != 7 {
		t.Fatalf("7-point center degree %d", a.Degree(center))
	}
	b := Grid3D(3, 3, 3, true)
	validate(t, b)
	if b.Degree(center) != 27 {
		t.Fatalf("27-point center degree %d", b.Degree(center))
	}
	if exact.Sprank(b) != 27 {
		t.Fatal("3d grid must have full sprank")
	}
}

func TestMesh2DStructure(t *testing.T) {
	a := Mesh2D(6, 6)
	validate(t, a)
	if a.Degree(0) != 2 {
		t.Fatalf("corner degree %d want 2", a.Degree(0))
	}
	if a.Degree(7) != 4 {
		t.Fatalf("interior degree %d want 4", a.Degree(7))
	}
	if !a.Equal(a.Transpose()) {
		t.Fatal("mesh not symmetric")
	}
	if exact.Sprank(a) != 36 {
		t.Fatal("even mesh must have a perfect matching")
	}
}

func TestRoadLikeDegreeAndSymmetry(t *testing.T) {
	a := RoadLike(10000, 2.1, 5)
	validate(t, a)
	d := a.AvgDegree()
	if d < 1.8 || d > 2.4 {
		t.Fatalf("avg degree %v want ≈2.1", d)
	}
	// Symmetric pattern.
	if !a.Equal(a.Transpose()) {
		t.Fatal("road network pattern not symmetric")
	}
	// Thinned grids are slightly sprank-deficient.
	sp := exact.Sprank(a)
	if sp == a.RowsN {
		t.Fatal("expected some deficiency in thinned grid")
	}
	if float64(sp) < 0.7*float64(a.RowsN) {
		t.Fatalf("sprank/n = %v unexpectedly low", float64(sp)/float64(a.RowsN))
	}
}

func TestPowerLawSkewAndSupport(t *testing.T) {
	a := PowerLaw(2000, 2, 1.1, 500, 9)
	validate(t, a)
	if a.DegreeVariance() < 4*a.AvgDegree() {
		t.Fatalf("power law variance %v too small vs mean %v", a.DegreeVariance(), a.AvgDegree())
	}
	// Diagonal is included, so sprank is full.
	if exact.Sprank(a) != 2000 {
		t.Fatal("power law with diagonal must have full sprank")
	}
}

func TestBandOffsets(t *testing.T) {
	a := Band(6, 0, -1, 1)
	validate(t, a)
	if a.Degree(0) != 2 || a.Degree(3) != 3 {
		t.Fatalf("band degrees %d %d", a.Degree(0), a.Degree(3))
	}
	if exact.Sprank(a) != 6 {
		t.Fatal("tridiagonal must have full sprank")
	}
}

func TestFullyIndecomposableHasTotalSupportCore(t *testing.T) {
	f := func(seed uint64, sz uint8) bool {
		n := int(sz)%100 + 2
		a := FullyIndecomposable(n, 1, seed)
		return exact.Sprank(a) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestKKTLikeStructure(t *testing.T) {
	a := KKTLike(300, 100, 2, 13)
	validate(t, a)
	if a.RowsN != 400 {
		t.Fatal("size wrong")
	}
	if !a.Equal(a.Transpose()) {
		t.Fatal("KKT pattern must be symmetric")
	}
	// Bottom-right block empty.
	for i := 300; i < 400; i++ {
		for _, j := range a.Row(i) {
			if int(j) >= 300 {
				t.Fatalf("entry (%d,%d) in zero block", i, j)
			}
		}
	}
}

func TestKOutWalkupTheorem(t *testing.T) {
	// Walkup 1980: 1-out bipartite graphs have max matching ≈ 0.866n
	// (they do NOT have perfect matchings asymptotically); 2-out graphs
	// have perfect matchings almost surely.
	n := 4000
	one := KOut(n, 1, 11)
	validate(t, one)
	frac := float64(exact.Sprank(one)) / float64(n)
	if frac < 0.85 || frac > 0.89 {
		t.Fatalf("1-out matching fraction %v want ≈0.866", frac)
	}
	two := KOut(n, 2, 11)
	validate(t, two)
	if sp := exact.Sprank(two); sp != n {
		t.Fatalf("2-out graph deficient: %d/%d (Walkup says perfect whp)", sp, n)
	}
	if deg := two.AvgDegree(); deg < 3.5 || deg > 4.0 {
		t.Fatalf("2-out degree %v want just under 4", deg)
	}
}

func TestKOutDenseFallback(t *testing.T) {
	a := KOut(3, 5, 1) // k >= n: complete bipartite graph
	if a.NNZ() != 9 {
		t.Fatalf("k>=n should give the complete graph, nnz=%d", a.NNZ())
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	type mk func() *sparse.CSR
	cases := map[string]mk{
		"roadlike": func() *sparse.CSR { return RoadLike(500, 2.2, 3) },
		"powerlaw": func() *sparse.CSR { return PowerLaw(200, 2, 1.5, 50, 3) },
		"fi":       func() *sparse.CSR { return FullyIndecomposable(100, 2, 3) },
		"kkt":      func() *sparse.CSR { return KKTLike(80, 20, 1, 3) },
		"er":       func() *sparse.CSR { return ER(100, 100, 300, 3) },
	}
	for name, f := range cases {
		if !f().Equal(f()) {
			t.Errorf("%s not deterministic", name)
		}
	}
}

func TestDirectSumBlocks(t *testing.T) {
	a := RankDeficient(40, 12, 3, 5)
	b := ER(10, 7, 20, 6)
	c := DirectSum(a, b)
	validate(t, c)
	if c.RowsN != a.RowsN+b.RowsN || c.ColsN != a.ColsN+b.ColsN || c.NNZ() != a.NNZ()+b.NNZ() {
		t.Fatalf("shape %dx%d nnz %d", c.RowsN, c.ColsN, c.NNZ())
	}
	for i := 0; i < c.RowsN; i++ {
		var want []int32
		shift := int32(0)
		if i < a.RowsN {
			want = a.Row(i)
		} else {
			want, shift = b.Row(i-a.RowsN), int32(a.ColsN)
		}
		got := c.Row(i)
		if len(got) != len(want) {
			t.Fatalf("row %d has %d entries, want %d", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k]+shift {
				t.Fatalf("row %d entry %d is column %d, want %d", i, k, got[k], want[k]+shift)
			}
		}
	}
}
