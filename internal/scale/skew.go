package scale

import (
	"sort"

	"repro/internal/par"
	"repro/internal/sparse"
)

// The paper's §2.2 notes that "in case of skewness in degree
// distributions, one [can] assign multiple threads to a single row with
// many nonzeros" to improve the parallel performance of ScaleSK. This file
// implements that optimization: rows/columns whose degree exceeds
// HeavyThreshold are summed with a nested parallel reduction while the
// remaining light rows go through the ordinary parallel-for.

// HeavyThreshold is the degree above which a row or column is processed
// with a nested parallel reduction.
const HeavyThreshold = 1 << 15

// SinkhornKnoppSkewAware computes SinkhornKnopp's scaling but splits very
// heavy rows and columns across all workers, which removes the
// load-imbalance tail on power-law instances like torso1. A split row is
// summed in pieces whose boundaries depend on the worker count, so its
// vectors agree with SinkhornKnopp's, and with each other across worker
// counts, only up to round-off: TestSkewAwareHeavyRowCorrectness and
// TestSkewAwareDeterministicAcrossWorkers check a relative 1e-9. At a
// fixed worker count the vectors are deterministic.
func SinkhornKnoppSkewAware(a, at *sparse.CSR, opt Options) (*Result, error) {
	if a.RowsN != at.ColsN || a.ColsN != at.RowsN {
		return nil, ErrShape
	}
	pl := opt.pool()
	workers := opt.Workers
	chunk := opt.chunkOrDefault()
	n, m := a.RowsN, a.ColsN
	res := &Result{DR: ones(n), DC: ones(m)}

	heavyCols := heavyIndices(at)
	lightCols := lightIndices(at, heavyCols)
	heavyRows := heavyIndices(a)
	lightRows := lightIndices(a, heavyRows)

	res.Err = colSumsAndError(at, res.DR, res.DC, nil, false, pl, workers, opt.Policy, chunk)
	res.History = append(res.History, res.Err)
	for it := 0; it < opt.MaxIters; it++ {
		if opt.Tol > 0 && res.Err <= opt.Tol {
			break
		}
		if opt.canceled() {
			return nil, ErrCanceled
		}
		// Light columns: one worker per chunk of columns.
		pl.For(len(lightCols), workers, opt.Policy, chunk, func(_, lo, hi int) {
			for k := lo; k < hi; k++ {
				j := lightCols[k]
				csum := rowSumWeighted(at, int(j), res.DR)
				if csum > 0 {
					res.DC[j] = 1.0 / csum
				}
			}
		})
		// Heavy columns: all workers per column.
		for _, j := range heavyCols {
			csum := parallelRowSum(at, int(j), res.DR, pl, workers)
			if csum > 0 {
				res.DC[j] = 1.0 / csum
			}
		}
		pl.For(len(lightRows), workers, opt.Policy, chunk, func(_, lo, hi int) {
			for k := lo; k < hi; k++ {
				i := lightRows[k]
				rsum := rowSumWeighted(a, int(i), res.DC)
				if rsum > 0 {
					res.DR[i] = 1.0 / rsum
				}
			}
		})
		for _, i := range heavyRows {
			rsum := parallelRowSum(a, int(i), res.DC, pl, workers)
			if rsum > 0 {
				res.DR[i] = 1.0 / rsum
			}
		}
		res.Iters++
		res.Err = colSumsAndError(at, res.DR, res.DC, nil, false, pl, workers, opt.Policy, chunk)
		res.History = append(res.History, res.Err)
	}
	return res, nil
}

func heavyIndices(a *sparse.CSR) []int32 {
	var heavy []int32
	for i := 0; i < a.RowsN; i++ {
		if a.Degree(i) > HeavyThreshold {
			heavy = append(heavy, int32(i))
		}
	}
	return heavy
}

func lightIndices(a *sparse.CSR, heavy []int32) []int32 {
	isHeavy := func(i int32) bool {
		k := sort.Search(len(heavy), func(k int) bool { return heavy[k] >= i })
		return k < len(heavy) && heavy[k] == i
	}
	light := make([]int32, 0, a.RowsN-len(heavy))
	for i := 0; i < a.RowsN; i++ {
		if !isHeavy(int32(i)) {
			light = append(light, int32(i))
		}
	}
	return light
}

// rowSumWeighted sums d over the entries of row i (sequential).
func rowSumWeighted(a *sparse.CSR, i int, d []float64) float64 {
	s, e := a.Ptr[i], a.Ptr[i+1]
	sum := 0.0
	if a.Val == nil {
		for p := s; p < e; p++ {
			sum += d[a.Idx[p]]
		}
		return sum
	}
	for p := s; p < e; p++ {
		sum += d[a.Idx[p]] * a.Val[p]
	}
	return sum
}

// parallelRowSum splits one very long row across all workers. The partial
// sums are combined in deterministic (worker-index) order over fixed
// boundaries, so the floating-point result is independent of scheduling
// (though it may differ from the purely sequential sum by round-off;
// callers who need bit-equality with SinkhornKnopp use one worker).
func parallelRowSum(a *sparse.CSR, i int, d []float64, pl *par.Pool, workers int) float64 {
	s, e := a.Ptr[i], a.Ptr[i+1]
	span := e - s
	workers = pl.Workers(workers)
	if span < HeavyThreshold || workers == 1 {
		return rowSumWeighted(a, i, d)
	}
	parts := make([]float64, workers)
	pl.Do(workers, func(w int) {
		lo := s + w*span/workers
		hi := s + (w+1)*span/workers
		sum := 0.0
		if a.Val == nil {
			for p := lo; p < hi; p++ {
				sum += d[a.Idx[p]]
			}
		} else {
			for p := lo; p < hi; p++ {
				sum += d[a.Idx[p]] * a.Val[p]
			}
		}
		parts[w] = sum
	})
	total := 0.0
	for _, p := range parts {
		total += p
	}
	return total
}
