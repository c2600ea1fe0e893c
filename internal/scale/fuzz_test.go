package scale

import (
	"math"
	"sync"
	"testing"

	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// fuzzPools are the pools of widths 1 to 3 FuzzSinkhornKnopp runs on,
// built once per process.
var fuzzPools = sync.OnceValue(func() []*par.Pool {
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

// FuzzSinkhornKnopp holds the sweeps to referenceSK, bit for bit. The
// seed picks the columns of every row. The first byte of data sets the
// column count, 20 + byte % 24, and its top bit gives the matrix edge
// values; the second sets the scheduling chunk, 1 + byte % 8, small enough
// to split the rows across workers. Every further byte adds one row of
// degree byte % 21, at most 64 rows, so the matrix is rectangular, has
// empty rows and, with few rows, empty columns; a row of degree 20 is
// added when no row is longer than 16. At 0, 1 and 5 iterations, on pools
// of width 1 to 3, the fused loop must return referenceSK's Iters, Err,
// History, DR and DC, and totals equal to fresh sums of the final
// vectors. A convergence-checked run with the smallest positive tolerance
// must agree as well.
func FuzzSinkhornKnopp(f *testing.F) {
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

		for _, iters := range []int{0, 1, 5} {
			want := referenceSK(a, at, iters)
			want.CSum = freshSums(at, want.DR)
			if iters > 0 {
				want.RSum = freshSums(a, want.DC)
			}
			for w, pool := range fuzzPools() {
				opt := Options{MaxIters: iters, Workers: w + 1, Policy: par.Dynamic, Chunk: chunk, Pool: pool}
				got, err := SinkhornKnopp(a, at, opt)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "fused", got, want)
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
				sameResult(t, "tol", tol, &ref)
			}
		}
	})
}
