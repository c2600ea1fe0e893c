package gen

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/sparse"
	"repro/internal/xrand"
)

// referencePattern is FromCOO's specification for a pattern: the entries
// sorted by (row, column) with duplicates dropped.
func referencePattern(rows, cols int, entries []sparse.Coord) *sparse.CSR {
	s := slices.Clone(entries)
	slices.SortStableFunc(s, func(x, y sparse.Coord) int {
		return cmp.Or(cmp.Compare(x.I, y.I), cmp.Compare(x.J, y.J))
	})
	s = slices.CompactFunc(s, func(x, y sparse.Coord) bool { return x.I == y.I && x.J == y.J })
	a := &sparse.CSR{RowsN: rows, ColsN: cols, Ptr: make([]int, rows+1), Idx: make([]int32, len(s))}
	for k, e := range s {
		a.Ptr[e.I+1]++
		a.Idx[k] = e.J
	}
	for i := 0; i < rows; i++ {
		a.Ptr[i+1] += a.Ptr[i]
	}
	return a
}

// TestGeneratorsMatchReferenceAssembly builds every generator at two sizes
// and two seeds and holds each assembly to referencePattern on the
// generator's own entries. Full, Identity and DirectSum lay out their CSR
// directly; for them, and for every other generator, FromCOO must also
// rebuild the same CSR from its entries in random order.
func TestGeneratorsMatchReferenceAssembly(t *testing.T) {
	generators := []struct {
		name      string
		assembles bool
		build     func(n int, seed uint64) *sparse.CSR
	}{
		{"Full", false, func(n int, _ uint64) *sparse.CSR { return Full(n / 8) }},
		{"Identity", false, func(n int, _ uint64) *sparse.CSR { return Identity(n) }},
		{"DirectSum", false, func(n int, _ uint64) *sparse.CSR { return DirectSum(Full(n/16), Identity(n/3)) }},
		{"ER", true, func(n int, s uint64) *sparse.CSR { return ER(n, n+7, 4*n, s) }},
		{"ERAvgDeg", true, func(n int, s uint64) *sparse.CSR { return ERAvgDeg(n, n/2, 3, s) }},
		{"SymmetricER", true, func(n int, s uint64) *sparse.CSR { return SymmetricER(n, 5, s) }},
		{"BadKS", true, func(n int, _ uint64) *sparse.CSR { return BadKS(n/4*2, n/16) }},
		{"Grid2D", true, func(n int, _ uint64) *sparse.CSR { return Grid2D(n/10, 10) }},
		{"Grid3D", true, func(n int, _ uint64) *sparse.CSR { m := int(math.Cbrt(float64(n))); return Grid3D(m, m+1, m+2, false) }},
		{"Grid3D27", true, func(n int, _ uint64) *sparse.CSR { m := int(math.Cbrt(float64(n))); return Grid3D(m, m+1, m+2, true) }},
		{"KOut", true, func(n int, s uint64) *sparse.CSR { return KOut(n, 2, s) }},
		{"Mesh2D", true, func(n int, _ uint64) *sparse.CSR { return Mesh2D(n/10, 10) }},
		{"RoadLike", true, func(n int, s uint64) *sparse.CSR { return RoadLike(n, 2.1, s) }},
		{"PowerLaw", true, func(n int, s uint64) *sparse.CSR { return PowerLaw(n, 3, 1.4, n/2, s) }},
		{"Band", true, func(n int, _ uint64) *sparse.CSR { return Band(n, 0, -1, 1, -7, 7) }},
		{"FullyIndecomposable", true, func(n int, s uint64) *sparse.CSR { return FullyIndecomposable(n, 3, s) }},
		{"KKTLike", true, func(n int, s uint64) *sparse.CSR { return KKTLike(n, n/3, 2, s) }},
		{"RankDeficient", true, func(n int, s uint64) *sparse.CSR { return RankDeficient(n, n/4, 4, s) }},
		{"LongThinPath", true, func(n int, _ uint64) *sparse.CSR { return LongThinPath(n) }},
		{"SkewedDegree", true, func(n int, s uint64) *sparse.CSR { return SkewedDegree(n, n*4/5, 4, 3, s) }},
	}
	defer func(f func(int, int, []sparse.Coord, bool) (*sparse.CSR, error)) { fromCOO = f }(fromCOO)
	for _, g := range generators {
		for _, n := range []int{80, 2000} {
			for _, seed := range []uint64{1, 2} {
				name := fmt.Sprintf("%s/n=%d/seed=%d", g.name, n, seed)
				calls := 0
				fromCOO = func(rows, cols int, entries []sparse.Coord, weighted bool) (*sparse.CSR, error) {
					calls++
					a, err := sparse.FromCOO(rows, cols, entries, weighted)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if want := referencePattern(rows, cols, entries); !a.Equal(want) {
						t.Fatalf("%s: FromCOO's CSR differs from the reference on the generator's %d entries", name, len(entries))
					}
					return a, nil
				}
				a := g.build(n, seed)
				if g.assembles != (calls == 1) {
					t.Fatalf("%s: %d assemblies, want assembles = %v", name, calls, g.assembles)
				}
				entries := a.ToCOO()
				rng := xrand.New(seed)
				for k := len(entries) - 1; k > 0; k-- {
					r := rng.Intn(k + 1)
					entries[k], entries[r] = entries[r], entries[k]
				}
				b, err := sparse.FromCOO(a.RowsN, a.ColsN, entries, false)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !a.Equal(b) {
					t.Fatalf("%s: FromCOO on the shuffled entries differs from the generator's CSR", name)
				}
			}
		}
	}
}
