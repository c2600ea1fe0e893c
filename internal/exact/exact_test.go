package exact

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

func checkMatching(t *testing.T, a *sparse.CSR, mt *Matching) {
	t.Helper()
	size := 0
	for i, j := range mt.RowMate {
		if j == NIL {
			continue
		}
		size++
		if mt.ColMate[j] != int32(i) {
			t.Fatalf("inconsistent mates: row %d -> col %d -> row %d", i, j, mt.ColMate[j])
		}
		found := false
		for _, c := range a.Row(i) {
			if c == j {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("matched non-edge (%d,%d)", i, j)
		}
	}
	if size != mt.Size {
		t.Fatalf("size field %d but %d matched rows", mt.Size, size)
	}
}

func TestHopcroftKarpSmallKnown(t *testing.T) {
	cases := []struct {
		grid [][]int
		want int
	}{
		{[][]int{{1}}, 1},
		{[][]int{{0}}, 0},
		{[][]int{{1, 1}, {1, 0}}, 2},
		{[][]int{{1, 1, 0}, {1, 0, 0}, {0, 1, 0}}, 2}, // col 2 empty
		{[][]int{ // classic 4x4 with perfect matching
			{1, 1, 0, 0},
			{0, 1, 1, 0},
			{0, 0, 1, 1},
			{1, 0, 0, 1},
		}, 4},
		{[][]int{ // star: one column shared by all rows
			{1, 0},
			{1, 0},
			{1, 0},
		}, 1},
	}
	for k, c := range cases {
		a := sparse.FromDense(c.grid)
		mt := HopcroftKarp(a, nil)
		checkMatching(t, a, mt)
		if mt.Size != c.want {
			t.Errorf("case %d: size %d want %d", k, mt.Size, c.want)
		}
	}
}

func TestMC21SmallKnown(t *testing.T) {
	a := sparse.FromDense([][]int{
		{1, 1, 0, 0},
		{0, 1, 1, 0},
		{0, 0, 1, 1},
		{1, 0, 0, 1},
	})
	mt := MC21(a, nil)
	checkMatching(t, a, mt)
	if mt.Size != 4 {
		t.Fatalf("MC21 size %d want 4", mt.Size)
	}
}

func TestHopcroftKarpEqualsMC21(t *testing.T) {
	f := func(seed uint64, r8, c8 uint8, dens uint8) bool {
		rows := int(r8)%50 + 1
		cols := int(c8)%50 + 1
		nnz := int(dens) % (rows*cols + 1)
		a := gen.ER(rows, cols, nnz, seed)
		hk := HopcroftKarp(a, nil)
		mc := MC21(a, nil)
		return hk.Size == mc.Size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchingsAreValid(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		a := gen.ER(80, 70, 400, seed)
		checkMatching(t, a, HopcroftKarp(a, nil))
		checkMatching(t, a, MC21(a, nil))
	}
}

func TestKoenigBoundOnKnownFamilies(t *testing.T) {
	// Families with known sprank.
	if got := Sprank(gen.Identity(33)); got != 33 {
		t.Fatalf("identity sprank %d", got)
	}
	if got := Sprank(gen.Full(17)); got != 17 {
		t.Fatalf("full sprank %d", got)
	}
	if got := Sprank(gen.Band(40, 0, 1)); got != 40 {
		t.Fatalf("band sprank %d", got)
	}
	if got := Sprank(gen.BadKS(64, 8)); got != 64 {
		t.Fatalf("badks sprank %d", got)
	}
	// A block of 3 rows sharing only 2 columns caps the matching.
	a := sparse.FromDense([][]int{
		{1, 1, 0, 0},
		{1, 1, 0, 0},
		{1, 1, 0, 0},
		{0, 0, 1, 1},
	})
	if got := Sprank(a); got != 3 {
		t.Fatalf("deficient sprank %d want 3", got)
	}
}

func TestWarmStartPreservedAndCompleted(t *testing.T) {
	a := gen.FullyIndecomposable(500, 2, 3)
	// Warm start: match the diagonal of the first half.
	init := NewMatching(500, 500)
	for i := 0; i < 250; i++ {
		init.RowMate[i] = int32(i)
		init.ColMate[i] = int32(i)
		init.Size++
	}
	hk := HopcroftKarp(a, init)
	checkMatching(t, a, hk)
	if hk.Size != 500 {
		t.Fatalf("warm-started HK size %d want 500", hk.Size)
	}
	mc := MC21(a, init)
	checkMatching(t, a, mc)
	if mc.Size != 500 {
		t.Fatalf("warm-started MC21 size %d want 500", mc.Size)
	}
	// Warm start must not be mutated.
	if init.Size != 250 || init.RowMate[0] != 0 {
		t.Fatal("warm start mutated")
	}
}

func TestWarmStartCannotLowerResult(t *testing.T) {
	f := func(seed uint64) bool {
		a := gen.ER(60, 60, 240, seed)
		plain := HopcroftKarp(a, nil)
		// Adversarial warm start: greedy first-fit.
		init := NewMatching(60, 60)
		for i := 0; i < 60; i++ {
			for _, j := range a.Row(i) {
				if init.ColMate[j] == NIL {
					init.RowMate[i] = j
					init.ColMate[j] = int32(i)
					init.Size++
					break
				}
			}
		}
		warm := HopcroftKarp(a, init)
		return warm.Size == plain.Size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFromRowMate(t *testing.T) {
	rm := []int32{2, NIL, 0}
	mt := FromRowMate(rm, 3)
	if mt.Size != 2 {
		t.Fatalf("size %d", mt.Size)
	}
	if mt.ColMate[2] != 0 || mt.ColMate[0] != 2 || mt.ColMate[1] != NIL {
		t.Fatalf("colmate %v", mt.ColMate)
	}
}

func TestQualityHelper(t *testing.T) {
	if Quality(5, 10) != 0.5 {
		t.Fatal("quality wrong")
	}
	if Quality(0, 0) != 1 {
		t.Fatal("empty matrix quality should be 1")
	}
}

func TestRectangularMatrices(t *testing.T) {
	// Wide and tall shapes.
	wide := gen.ER(30, 90, 300, 5)
	tall := gen.ER(90, 30, 300, 5)
	hkW := HopcroftKarp(wide, nil)
	hkT := HopcroftKarp(tall, nil)
	checkMatching(t, wide, hkW)
	checkMatching(t, tall, hkT)
	if hkW.Size > 30 || hkT.Size > 30 {
		t.Fatal("matching exceeds min(rows,cols)")
	}
	if hkW.Size != MC21(wide, nil).Size || hkT.Size != MC21(tall, nil).Size {
		t.Fatal("HK and MC21 disagree on rectangular instance")
	}
}

func TestPathGraphPerfectMatching(t *testing.T) {
	// Bipartite path r0-c0-r1-c1-...: perfect matching exists.
	n := 100
	entries := []sparse.Coord{}
	for i := 0; i < n; i++ {
		entries = append(entries, sparse.Coord{I: int32(i), J: int32(i)})
		if i+1 < n {
			entries = append(entries, sparse.Coord{I: int32(i + 1), J: int32(i)})
		}
	}
	a, err := sparse.FromCOO(n, n, entries, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := HopcroftKarp(a, nil).Size; got != n {
		t.Fatalf("path matching %d want %d", got, n)
	}
}

func TestLargeSparseAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := xrand.New(1)
	for trial := 0; trial < 5; trial++ {
		n := 2000 + rng.Intn(2000)
		a := gen.ERAvgDeg(n, n, 3, uint64(trial)*7+1)
		hk := HopcroftKarp(a, nil)
		mc := MC21(a, nil)
		checkMatching(t, a, hk)
		if hk.Size != mc.Size {
			t.Fatalf("n=%d: HK %d != MC21 %d", n, hk.Size, mc.Size)
		}
	}
}
