package scale

import (
	"math"
	"sync"
	"testing"

	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// layoutPools are the pools of widths 1 to 3 the layout fuzz target runs
// on, built once per process.
var layoutPools = sync.OnceValue(func() []*par.Pool {
	return []*par.Pool{par.NewPool(1), par.NewPool(2), par.NewPool(3)}
})

// freshSums returns Σ_j a_ij·dc[j] for every row i of a, left to right:
// the row (or, on the transpose, column) totals the fused loop exports.
func freshSums(a *sparse.CSR, dc []float64) []float64 {
	sums := make([]float64, a.RowsN)
	for i := range sums {
		for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
			v := 1.0
			if a.Val != nil {
				v = a.Val[p]
			}
			sums[i] += dc[a.Idx[p]] * v
		}
	}
	return sums
}

// sameResult fails t unless got has want's Iters, and the bits of its
// Err, History, DR, DC, RSum and CSum.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.Iters != want.Iters || math.Float64bits(got.Err) != math.Float64bits(want.Err) {
		t.Fatalf("%s: iters %d err %v, want iters %d err %v", what, got.Iters, got.Err, want.Iters, want.Err)
	}
	cmpF64s(t, what+" History", got.History, want.History)
	cmpF64s(t, what+" DR", got.DR, want.DR)
	cmpF64s(t, what+" DC", got.DC, want.DC)
	if (got.RSum == nil) != (want.RSum == nil) || (got.CSum == nil) != (want.CSum == nil) {
		t.Fatalf("%s: exported totals present (%v, %v), want (%v, %v)", what,
			got.RSum != nil, got.CSum != nil, want.RSum != nil, want.CSum != nil)
	}
	cmpF64s(t, what+" RSum", got.RSum, want.RSum)
	cmpF64s(t, what+" CSum", got.CSum, want.CSum)
}

// FuzzSinkhornKnoppLayout holds the sweeps over the packed layouts to the
// sweeps over the CSR and to referenceSK, bit for bit. The seed picks the
// columns of every row. The first byte of data sets the column count,
// 20 + byte % 24, and its top bit gives the matrix edge values; the second
// sets the scheduling chunk, 1 + byte % 8, small enough to split the
// degree groups across workers. Every further byte adds one row of degree
// byte % 21, at most 64 rows, so the matrix is rectangular, has empty
// rows and, with few rows, empty columns; a row of degree 20 is added
// when no row is longer than 16. At 0, 1 and 5 iterations, on pools of
// width 1 to 3, the layout path and the CSR path must return
// referenceSK's Iters, Err, History, DR and DC, and totals equal to fresh
// sums of the final vectors. A convergence-checked
// run with the smallest positive tolerance must agree as well. A matrix
// with edge values ignores the layouts, which hold its pattern only, so
// its results equal referenceSK's only if it takes the CSR path.
func FuzzSinkhornKnoppLayout(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 0, 1, 2, 3, 4, 16, 17, 20})
	f.Add(uint64(2), []byte{23, 3, 5, 5, 5, 2, 2, 0, 18, 19, 16, 1})
	f.Add(uint64(3), []byte{0x80, 7, 1, 2, 3, 17, 4, 4})
	f.Add(uint64(4), []byte{9, 1, 0, 0, 0})
	f.Add(uint64(5), []byte{12, 4, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 20})
	f.Add(uint64(6), []byte{0x97, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		if len(data) < 2 {
			return
		}
		cols, weighted, chunk := 20+int(data[0]&0x7f)%24, data[0]&0x80 != 0, 1+int(data[1])%8
		degs := make([]int, 0, 65)
		long := false
		for _, b := range data[2:min(len(data), 66)] {
			degs = append(degs, int(b)%21)
			long = long || int(b)%21 > sparse.MaxFixedDegree
		}
		if !long {
			degs = append(degs, 20)
		}
		rng := xrand.NewSplitMix64(seed)
		a := &sparse.CSR{RowsN: len(degs), ColsN: cols, Ptr: make([]int, len(degs)+1)}
		for i, d := range degs {
			// d distinct columns in ascending order: a partial shuffle.
			perm := make([]int32, cols)
			for j := range perm {
				perm[j] = int32(j)
			}
			for k := 0; k < d; k++ {
				r := k + rng.Intn(cols-k)
				perm[k], perm[r] = perm[r], perm[k]
			}
			row := perm[:d]
			for x := 1; x < len(row); x++ {
				for y := x; y > 0 && row[y-1] > row[y]; y-- {
					row[y-1], row[y] = row[y], row[y-1]
				}
			}
			a.Idx = append(a.Idx, row...)
			a.Ptr[i+1] = len(a.Idx)
		}
		if weighted {
			a.Val = make([]float64, len(a.Idx))
			for p := range a.Val {
				a.Val[p] = 0.25 + rng.Float64()
			}
		}
		at := a.Transpose()
		rows := sparse.NewDegreeOrder(a).Pack(a)
		colsL := sparse.NewDegreeOrder(at).Pack(at)

		for _, iters := range []int{0, 1, 5} {
			want := referenceSK(a, at, iters)
			want.CSum = freshSums(at, want.DR)
			if iters > 0 {
				want.RSum = freshSums(a, want.DC)
			}
			for w, pool := range layoutPools() {
				opt := Options{MaxIters: iters, Workers: w + 1, Policy: par.Dynamic, Chunk: chunk, Pool: pool}
				csr, err := SinkhornKnopp(a, at, opt)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "csr", csr, want)
				opt.RowLayout, opt.ColLayout = rows, colsL
				got, err := SinkhornKnopp(a, at, opt)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "layout", got, want)
				opt.Tol = math.SmallestNonzeroFloat64
				tol, err := SinkhornKnopp(a, at, opt)
				if err != nil {
					t.Fatal(err)
				}
				// The Tol path exports no totals, and stops early only
				// at an error of exactly 0.
				ref := *want
				for k := 0; k < iters; k++ {
					if want.History[k] == 0 {
						ref = *referenceSK(a, at, k)
						break
					}
				}
				ref.RSum, ref.CSum = nil, nil
				sameResult(t, "tol layout", tol, &ref)
			}
		}
	})
}

// TestLayoutOfAnotherMatrixRejected: layouts whose row count does not
// match the matrix fail with ErrShape instead of sweeping another
// matrix's rows.
func TestLayoutOfAnotherMatrixRejected(t *testing.T) {
	a := sparse.FromDense([][]int{{1, 1, 0}, {0, 1, 1}})
	at := a.Transpose()
	rows := sparse.NewDegreeOrder(a).Pack(a)
	cols := sparse.NewDegreeOrder(at).Pack(at)
	for _, opt := range []Options{
		{MaxIters: 2, RowLayout: cols, ColLayout: cols},
		{MaxIters: 2, RowLayout: rows, ColLayout: rows},
	} {
		if _, err := SinkhornKnopp(a, at, opt); err != ErrShape {
			t.Fatalf("mismatched layouts: err %v, want ErrShape", err)
		}
	}
	if _, err := SinkhornKnopp(a, at, Options{MaxIters: 2, RowLayout: rows, ColLayout: cols}); err != nil {
		t.Fatal(err)
	}
}

// TestLayoutPathReadsTheLayout: the sweeps of a pattern matrix read the
// packed indices when given a layout. A layout whose packed rows point at
// other columns must change the result; if the sweeps fell back to the
// CSR, the bit-identity checks above would pass without testing a layout.
func TestLayoutPathReadsTheLayout(t *testing.T) {
	a := sparse.FromDense([][]int{{1, 1, 0, 0, 0}, {0, 1, 1, 0, 1}, {0, 0, 1, 1, 0}, {1, 0, 0, 0, 0}, {1, 1, 1, 1, 1}})
	at := a.Transpose()
	want, err := SinkhornKnopp(a, at, Options{MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range []string{"rows", "cols"} {
		rows := sparse.NewDegreeOrder(a).Pack(a)
		cols := sparse.NewDegreeOrder(at).Pack(at)
		bad := rows
		if side == "cols" {
			bad = cols
		}
		bad.Idx = append([]int32(nil), bad.Idx...)
		bad.Idx[0]++ // row 3's column 0 becomes 1; column 3's row 2 becomes 3
		got, err := SinkhornKnopp(a, at, Options{MaxIters: 3, RowLayout: rows, ColLayout: cols})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Err) == math.Float64bits(want.Err) {
			t.Fatalf("a corrupted %s layout left the scaling error at %v: the sweeps did not read it", side, got.Err)
		}
	}
}
