package scale

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/sparse"
)

// referenceSK is the textbook three-sweep Sinkhorn–Knopp loop (column
// pass, row pass, dedicated error sweep), written sequentially. The fused
// production loop must reproduce it bit for bit.
func referenceSK(a, at *sparse.CSR, iters int) *Result {
	n, m := a.RowsN, a.ColsN
	res := &Result{DR: ones(n), DC: ones(m)}
	colErr := func() float64 {
		worst := 0.0
		for j := 0; j < m; j++ {
			csum := 0.0
			for p := at.Ptr[j]; p < at.Ptr[j+1]; p++ {
				v := 1.0
				if at.Val != nil {
					v = at.Val[p]
				}
				csum += res.DR[at.Idx[p]] * v
			}
			if d := math.Abs(csum*res.DC[j] - 1.0); d > worst {
				worst = d
			}
		}
		return worst
	}
	res.Err = colErr()
	res.History = append(res.History, res.Err)
	for it := 0; it < iters; it++ {
		for j := 0; j < m; j++ {
			csum := 0.0
			for p := at.Ptr[j]; p < at.Ptr[j+1]; p++ {
				v := 1.0
				if at.Val != nil {
					v = at.Val[p]
				}
				csum += res.DR[at.Idx[p]] * v
			}
			if csum > 0 {
				res.DC[j] = 1.0 / csum
			}
		}
		for i := 0; i < n; i++ {
			rsum := 0.0
			for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
				v := 1.0
				if a.Val != nil {
					v = a.Val[p]
				}
				rsum += v * res.DC[a.Idx[p]]
			}
			if rsum > 0 {
				res.DR[i] = 1.0 / rsum
			}
		}
		res.Iters++
		res.Err = colErr()
		res.History = append(res.History, res.Err)
	}
	return res
}

func fusedTestMatrices() map[string]*sparse.CSR {
	return map[string]*sparse.CSR{
		"er":     gen.ERAvgDeg(800, 800, 5, 3),
		"fi":     gen.FullyIndecomposable(500, 2, 9),
		"pl":     gen.PowerLaw(600, 2, 1.7, 200, 4),
		"ragged": gen.ERAvgDeg(300, 700, 3, 8),
	}
}

// TestFusedMatchesClassicReference pins the fused two-sweep loop to the
// classic three-sweep formulation: identical DR, DC, Err and History for
// every worker count and policy.
func TestFusedMatchesClassicReference(t *testing.T) {
	for name, a := range fusedTestMatrices() {
		at := a.Transpose()
		for _, iters := range []int{0, 1, 2, 5} {
			want := referenceSK(a, at, iters)
			for _, w := range []int{1, 3, 8} {
				for _, pol := range []par.Policy{par.Static, par.Dynamic, par.Guided} {
					got, err := SinkhornKnopp(a, at, Options{MaxIters: iters, Workers: w, Policy: pol, Chunk: 64})
					if err != nil {
						t.Fatal(err)
					}
					if got.Iters != want.Iters || got.Err != want.Err {
						t.Fatalf("%s iters=%d w=%d %v: got (iters=%d err=%v) want (iters=%d err=%v)",
							name, iters, w, pol, got.Iters, got.Err, want.Iters, want.Err)
					}
					cmpF64s(t, name+" DR", got.DR, want.DR)
					cmpF64s(t, name+" DC", got.DC, want.DC)
					cmpF64s(t, name+" History", got.History, want.History)
				}
			}
		}
	}
}

// TestExportedSumsMatchFreshSweeps checks that RSum and CSum are
// bit-identical to sums recomputed from the final vectors — they are the
// sampling totals the matching kernels rely on.
func TestExportedSumsMatchFreshSweeps(t *testing.T) {
	for name, a := range fusedTestMatrices() {
		at := a.Transpose()
		res, err := SinkhornKnopp(a, at, Options{MaxIters: 4, Workers: 4, Policy: par.Dynamic})
		if err != nil {
			t.Fatal(err)
		}
		if res.RSum == nil || res.CSum == nil {
			t.Fatalf("%s: fused run did not export RSum/CSum", name)
		}
		for i := 0; i < a.RowsN; i++ {
			sum := 0.0
			for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
				v := 1.0
				if a.Val != nil {
					v = a.Val[p]
				}
				sum += res.DC[a.Idx[p]] * v
			}
			if res.RSum[i] != sum {
				t.Fatalf("%s: RSum[%d] = %v, fresh sum %v", name, i, res.RSum[i], sum)
			}
		}
		for j := 0; j < a.ColsN; j++ {
			sum := 0.0
			for p := at.Ptr[j]; p < at.Ptr[j+1]; p++ {
				v := 1.0
				if at.Val != nil {
					v = at.Val[p]
				}
				sum += res.DR[at.Idx[p]] * v
			}
			if res.CSum[j] != sum {
				t.Fatalf("%s: CSum[%d] = %v, fresh sum %v", name, j, res.CSum[j], sum)
			}
		}
	}
}

// TestTolPathStillConverges pins the convergence-checked variant: it must
// stop early, leave the totals nil, and agree with the fused path on the
// iterations it shares.
func TestTolPathStillConverges(t *testing.T) {
	a := gen.FullyIndecomposable(400, 3, 5)
	at := a.Transpose()
	tol, _ := SinkhornKnopp(a, at, Options{MaxIters: 200, Tol: 1e-3, Workers: 4, Policy: par.Dynamic})
	if tol.Err > 1e-3 {
		t.Fatalf("Tol run did not converge: err %v after %d iters", tol.Err, tol.Iters)
	}
	if tol.Iters >= 200 {
		t.Fatalf("Tol run never stopped early (%d iters)", tol.Iters)
	}
	if tol.RSum != nil || tol.CSum != nil {
		t.Fatal("Tol run unexpectedly exported sampling totals")
	}
	fused, _ := SinkhornKnopp(a, at, Options{MaxIters: tol.Iters, Workers: 4, Policy: par.Dynamic})
	cmpF64s(t, "tol-vs-fused DR", tol.DR, fused.DR)
	cmpF64s(t, "tol-vs-fused DC", tol.DC, fused.DC)
	cmpF64s(t, "tol-vs-fused History", tol.History, fused.History)
}

// TestScalingOnCallerOwnedPool runs the fused loop on an explicit pool and
// checks the result is identical to the default pool's.
func TestScalingOnCallerOwnedPool(t *testing.T) {
	a := gen.ERAvgDeg(500, 500, 4, 6)
	at := a.Transpose()
	want, _ := SinkhornKnopp(a, at, Options{MaxIters: 5, Workers: 4, Policy: par.Guided})
	pool := par.NewPool(4)
	defer pool.Close()
	got, _ := SinkhornKnopp(a, at, Options{MaxIters: 5, Workers: 4, Policy: par.Guided, Pool: pool})
	cmpF64s(t, "pool DR", got.DR, want.DR)
	cmpF64s(t, "pool DC", got.DC, want.DC)
	cmpF64s(t, "pool RSum", got.RSum, want.RSum)
	cmpF64s(t, "pool CSum", got.CSum, want.CSum)
}

func cmpF64s(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for k := range got {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: index %d differs: %v vs %v", what, k, got[k], want[k])
		}
	}
}
