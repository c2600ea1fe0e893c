// Package scale implements doubly stochastic matrix scaling. The matching
// heuristics use the scaled entries s_ij = dr[i]·a_ij·dc[j] as probability
// densities for choosing edges (paper §2.2 and Algorithm 1).
//
// Two methods are provided: the parallel Sinkhorn–Knopp iteration (ScaleSK,
// Algorithm 1 in the paper), and the Ruiz equilibration iteration reviewed
// in §2.2 for comparison. Both produce scaling vectors dr, dc rather than
// materializing the scaled matrix.
//
// The fixed-iteration-count configuration the experiments use (Tol <= 0)
// runs a fused Sinkhorn–Knopp loop that touches the matrix twice per
// iteration instead of three times: the scaling-error sweep is folded into
// the next iteration's column pass (the column sums it needs are the same
// sums the error is defined over), the initial error sweep doubles as the
// first column pass, and one deferred sweep after the loop settles the
// final error. On a matrix without edge values the initial sweep reads
// only the column degrees, which are its exact sums, so a 5-iteration
// run makes 10 sweeps over the matrix. The fused loop reports the exact
// same Err and History values, measured at the same points, as the
// classic column/row/error-sweep formulation — only the number of passes
// over the matrix changes. It also exports the per-row and per-column
// scaled sums of the final vectors (Result.RSum, Result.CSum), which are
// precisely the sampling denominators Algorithms 2 and 3 need, so sampling
// can skip its own sum pass over the matrix.
//
// Every row and column pass walks the CSR of the matrix or of its
// transpose in index order, chunked over the pool, and sums each row left
// to right, so the outputs are the same bits at every width;
// FuzzSinkhornKnopp holds them to the classic reference at widths 1 to 3.
package scale

import (
	"errors"
	"math"

	"repro/internal/par"
	"repro/internal/sparse"
)

// Options configures a scaling run.
type Options struct {
	// MaxIters bounds the number of iterations. Zero iterations leaves
	// dr = dc = 1, i.e., uniform sampling (the "0 iterations" rows of
	// Tables 1 and 2).
	MaxIters int
	// Tol stops the iteration once the scaling error (max |colsum-1|)
	// drops below it. Tol <= 0 disables the convergence check so that
	// exactly MaxIters iterations run, as the experiments require; this
	// is also the configuration that takes the fused two-sweep loop.
	Tol float64
	// Workers is the parallel width; <= 0 means the pool width.
	Workers int
	// Policy is the loop scheduling policy; the paper uses (dynamic,512).
	Policy par.Policy
	// Chunk is the scheduling chunk size; <= 0 means par.DefaultChunk.
	Chunk int
	// Pool is the worker pool the scaling sweeps are dispatched to; nil
	// means the process-wide par.Default pool. Callers that run scaling,
	// sampling and matching back to back pass one pool through all of
	// them.
	Pool *par.Pool
	// Cancel, when non-nil, is a cooperative cancellation hook polled
	// between matrix sweeps (once or twice per iteration). When it reports
	// true the run aborts with ErrCanceled; the scaling state accumulated
	// so far is discarded. The serving layer derives it from the request's
	// context deadline.
	Cancel func() bool
}

// canceled reports whether the run's cancellation hook has fired.
func (o Options) canceled() bool { return o.Cancel != nil && o.Cancel() }

// ErrCanceled reports a scaling run aborted by its Options.Cancel hook.
var ErrCanceled = errors.New("scale: canceled")

func (o Options) pool() *par.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	return par.Default()
}

func (o Options) chunkOrDefault() int {
	if o.Chunk <= 0 {
		return par.DefaultChunk
	}
	return o.Chunk
}

// Result carries the scaling vectors and convergence information.
type Result struct {
	DR, DC []float64
	// Iters is the number of iterations actually performed.
	Iters int
	// Err is the scaling error after the final iteration: the maximum
	// absolute difference between a column sum of the scaled matrix and
	// one. Before any iteration it is measured on the unscaled matrix.
	Err float64
	// History records the error measured at the start of each iteration,
	// History[0] being the unscaled error (n-1 for a matrix with a full
	// column, as noted in the paper).
	History []float64
	// RSum and CSum are the raw scaled sums of the final vectors:
	// RSum[i] = Σ_j a_ij·DC[j] and CSum[j] = Σ_i DR[i]·a_ij, zero for
	// empty rows/columns. These are bit-for-bit the row and column
	// sampling totals of Algorithms 2 and 3 (the common factor DR[i],
	// resp. DC[j], cancels inside one row, resp. column), so the
	// sampling kernels reuse them instead of re-summing the matrix.
	// They are nil when the convergence-checked (Tol > 0) path runs,
	// and RSum is nil after zero iterations.
	RSum, CSum []float64
}

// ErrShape reports mismatched matrix/transpose arguments.
var ErrShape = errors.New("scale: transpose shape mismatch")

// SinkhornKnopp runs Algorithm 1 (ScaleSK) on a, whose transpose at must be
// supplied (both orientations are needed: column sums walk columns, row
// sums walk rows). Val == nil treats entries as 1. Rows or columns with no
// entries keep their scaling factor (their sums are reported as 0 and the
// error reflects it), matching the paper's treatment of structurally
// deficient matrices where irrelevant entries drift to zero.
func SinkhornKnopp(a, at *sparse.CSR, opt Options) (*Result, error) {
	if a.RowsN != at.ColsN || a.ColsN != at.RowsN {
		return nil, ErrShape
	}
	n, m := a.RowsN, a.ColsN
	if opt.canceled() {
		return nil, ErrCanceled
	}
	sw := sweeps{a: a, at: at, p: opt.pool(), workers: opt.Workers, policy: opt.Policy, chunk: opt.chunkOrDefault()}
	if opt.Tol > 0 {
		// The convergence check needs the error of an iteration before
		// deciding whether to run the next one, which forces the classic
		// dedicated error sweep per iteration.
		res := &Result{DR: ones(n), DC: ones(m)}
		if err := sinkhornKnoppTol(sw, opt, res); err != nil {
			return nil, err
		}
		return res, nil
	}

	res := &Result{DR: ones(n), DC: ones(m)}
	csum := make([]float64, m)
	var rsum []float64
	if opt.MaxIters > 0 {
		rsum = make([]float64, n)
	}

	// The initial error sweep already computes Σ_i dr[i]·a_ij for every
	// column — the exact sums the first column pass needs — so it also
	// serves as the first column pass: dc[j] <- 1/csum[j]. The sums are
	// kept only when no iteration runs, as the column sampling totals.
	first := csum
	if opt.MaxIters > 0 {
		first = nil
	}
	res.Err = sw.firstCol(res.DR, res.DC, first, opt.MaxIters > 0)
	res.History = append(res.History, res.Err)
	if opt.MaxIters <= 0 {
		res.CSum = csum
		return res, nil
	}

	// Row pass: dr[i] <- 1 / Σ_{j in Ai*} a_ij*dc[j]. The last iteration
	// keeps the raw sums: they are the row sampling totals.
	sw.row(res.DC, res.DR, rsumIfLast(rsum, 0, opt.MaxIters))
	res.Iters++
	for it := 1; it < opt.MaxIters; it++ {
		if opt.canceled() {
			return nil, ErrCanceled
		}
		// Fused column pass: the fresh column sums determine both the
		// error of the state entering this iteration (the previous
		// iteration's result, measured against the not-yet-updated dc)
		// and the new dc.
		err := sw.col(res.DR, res.DC, nil, true)
		res.History = append(res.History, err)
		sw.row(res.DC, res.DR, rsumIfLast(rsum, it, opt.MaxIters))
		res.Iters++
	}
	// Deferred final sweep: the error of the last iteration, and the
	// column sampling totals of the final vectors.
	res.Err = sw.col(res.DR, res.DC, csum, false)
	res.History = append(res.History, res.Err)
	res.RSum = rsum
	res.CSum = csum
	return res, nil
}

// rsumIfLast returns the row-sum output of iteration it of iters: rsum on
// the last iteration, nil before it.
func rsumIfLast(rsum []float64, it, iters int) []float64 {
	if it == iters-1 {
		return rsum
	}
	return nil
}

// sinkhornKnoppTol is the classic three-sweep loop used when a convergence
// tolerance is set. It reports the same Err/History as the fused loop for
// the iterations it runs, but leaves RSum/CSum nil.
func sinkhornKnoppTol(sw sweeps, opt Options, res *Result) error {
	res.Err = sw.col(res.DR, res.DC, nil, false)
	res.History = append(res.History, res.Err)
	for it := 0; it < opt.MaxIters; it++ {
		if res.Err <= opt.Tol {
			break
		}
		if opt.canceled() {
			return ErrCanceled
		}
		// Column pass: dc[j] <- 1 / sum_{i in A*j} dr[i]*a_ij.
		sw.col(res.DR, res.DC, nil, true)
		// Row pass: dr[i] <- 1 / sum_{j in Ai*} a_ij*dc[j].
		sw.row(res.DC, res.DR, nil)
		res.Iters++
		res.Err = sw.col(res.DR, res.DC, nil, false)
		res.History = append(res.History, res.Err)
	}
	return nil
}

// Ruiz runs the Ruiz equilibration iteration: every step scales rows and
// columns simultaneously by the inverse square roots of their current sums.
// It converges to the same doubly stochastic limit but, as Knight, Ruiz and
// Uçar observed, more slowly than Sinkhorn–Knopp on unsymmetric matrices —
// the ablation benchmark demonstrates exactly that.
func Ruiz(a, at *sparse.CSR, opt Options) (*Result, error) {
	if a.RowsN != at.ColsN || a.ColsN != at.RowsN {
		return nil, ErrShape
	}
	p := opt.pool()
	chunk := opt.chunkOrDefault()
	n, m := a.RowsN, a.ColsN
	res := &Result{DR: ones(n), DC: ones(m)}
	rsum := make([]float64, n)
	csum := make([]float64, m)

	res.Err = colSumsAndError(at, res.DR, res.DC, nil, false, p, opt.Workers, opt.Policy, chunk)
	res.History = append(res.History, res.Err)
	for it := 0; it < opt.MaxIters; it++ {
		if opt.Tol > 0 && res.Err <= opt.Tol {
			break
		}
		if opt.canceled() {
			return nil, ErrCanceled
		}
		p.For(n, opt.Workers, opt.Policy, chunk, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				s := 0.0
				for q := a.Ptr[i]; q < a.Ptr[i+1]; q++ {
					v := 1.0
					if a.Val != nil {
						v = a.Val[q]
					}
					s += res.DR[i] * v * res.DC[a.Idx[q]]
				}
				rsum[i] = s
			}
		})
		p.For(m, opt.Workers, opt.Policy, chunk, func(_, lo, hi int) {
			for j := lo; j < hi; j++ {
				s := 0.0
				for q := at.Ptr[j]; q < at.Ptr[j+1]; q++ {
					v := 1.0
					if at.Val != nil {
						v = at.Val[q]
					}
					s += res.DR[at.Idx[q]] * v * res.DC[j]
				}
				csum[j] = s
			}
		})
		p.For(n, opt.Workers, opt.Policy, chunk, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if rsum[i] > 0 {
					res.DR[i] /= math.Sqrt(rsum[i])
				}
			}
		})
		p.For(m, opt.Workers, opt.Policy, chunk, func(_, lo, hi int) {
			for j := lo; j < hi; j++ {
				if csum[j] > 0 {
					res.DC[j] /= math.Sqrt(csum[j])
				}
			}
		})
		res.Iters++
		res.Err = colSumsAndError(at, res.DR, res.DC, nil, false, p, opt.Workers, opt.Policy, chunk)
		res.History = append(res.History, res.Err)
	}
	return res, nil
}

// ColError computes the scaling error of (dr, dc) on the matrix with
// transpose at: max over columns of |sum_i dr[i]*a_ij*dc[j] - 1|. This is
// the quantity reported in Tables 1 and 3.
func ColError(at *sparse.CSR, dr, dc []float64, workers int) float64 {
	return colSumsAndError(at, dr, dc, nil, false, par.Default(), workers, par.Dynamic, par.DefaultChunk)
}

// RowError is the row-side counterpart of ColError (max |rowsum-1|),
// computed on the matrix itself.
func RowError(a *sparse.CSR, dr, dc []float64, workers int) float64 {
	return colSumsAndError(a, dc, dr, nil, false, par.Default(), workers, par.Dynamic, par.DefaultChunk)
}

// sweeps holds what every pass of one scaling run needs: the matrix, its
// transpose and the parallel schedule. Every pass runs csrRange over its
// chunks of rows. csrRange, rowSum and finish are functions of their own,
// so the alignment of each loop does not depend on the code around it: on
// a 2-vCPU Xeon, moving a row loop within one larger function changed a
// pass's time by a third.
type sweeps struct {
	a, at   *sparse.CSR
	p       *par.Pool
	workers int
	policy  par.Policy
	chunk   int
}

// col is one column pass; see colSumsAndError.
func (sw sweeps) col(dr, dc, sums []float64, invert bool) float64 {
	return colSumsAndError(sw.at, dr, dc, sums, invert, sw.p, sw.workers, sw.policy, sw.chunk)
}

// row is one row pass: dr[i] <- 1/Σ_j a_ij·dc[j] for every row with a
// positive sum, storing the raw sums in sums when non-nil.
func (sw sweeps) row(dc, dr, sums []float64) {
	a := sw.a
	sw.p.For(a.RowsN, sw.workers, sw.policy, sw.chunk, func(_, lo, hi int) {
		csrRange(a, dc, dr, sums, true, false, lo, hi, 0)
	})
}

// firstCol is the column pass of the first iteration, which starts from
// dr = 1: see colSumsAndError. Without edge values every column sum is
// then the column's degree, exact in float64, so the pass reads the
// column pointers and no index: a 5-iteration run makes 10 sweeps over
// the matrix, not 11, and History[0] keeps its bits.
func (sw sweeps) firstCol(dr, dc, sums []float64, invert bool) float64 {
	at := sw.at
	if at.Val != nil {
		return sw.col(dr, dc, sums, invert)
	}
	return sw.p.ReduceFloat64(at.RowsN, sw.workers, sw.policy, sw.chunk, 0,
		func(_, lo, hi int, acc float64) float64 {
			for j := lo; j < hi; j++ {
				acc = finish(dc, sums, j, float64(at.Ptr[j+1]-at.Ptr[j]), invert, true, acc)
			}
			return acc
		}, math.Max)
}

// colSumsAndError walks the columns once and returns
// max_j |sum_j·dc[j] - 1| — the scaling error, measured against the dc the
// columns enter the sweep with. Two optional outputs ride along on the
// same pass: sums, when non-nil, receives the raw weighted column sums
// Σ_i dr[i]·a_ij (the sampling totals / next-pass inputs), and invert
// additionally updates dc[j] to the inverted fresh sum — which turns the
// sweep into one fused column pass of the fixed-iteration loop (the error
// it reports is exactly the scaling error of the previous iteration's
// result, because it is measured before dc is touched). One kernel thus
// serves the error measurement, the totals export and the fused column
// pass; the bit-identity between the fused and classic paths holds because
// every caller accumulates through csrRange, and
// TestFusedMatchesClassicReference fails if the order ever drifts.
func colSumsAndError(at *sparse.CSR, dr, dc []float64, sums []float64, invert bool,
	p *par.Pool, workers int, policy par.Policy, chunk int) float64 {
	return p.ReduceFloat64(at.RowsN, workers, policy, chunk, 0,
		func(_, lo, hi int, acc float64) float64 {
			return csrRange(at, dr, dc, sums, invert, true, lo, hi, acc)
		}, math.Max)
}

// csrRange runs a pass over rows [lo, hi) of x in index order.
func csrRange(x *sparse.CSR, w, d, sums []float64, invert, measure bool, lo, hi int, acc float64) float64 {
	for i := lo; i < hi; i++ {
		acc = finish(d, sums, i, rowSum(x, w, i), invert, measure, acc)
	}
	return acc
}

// rowSum returns Σ_q w[x.Idx[q]]·x.Val[q] over row i of x, left to right.
func rowSum(x *sparse.CSR, w []float64, i int) float64 {
	s, e := x.Ptr[i], x.Ptr[i+1]
	sum := 0.0
	if x.Val == nil {
		for _, j := range x.Idx[s:e] {
			sum += w[j]
		}
	} else {
		for q := s; q < e; q++ {
			sum += w[x.Idx[q]] * x.Val[q]
		}
	}
	return sum
}

// finish applies a pass's outputs for row i with the given sum: it stores
// the sum in sums when non-nil, folds |sum·d[i] − 1| into the running
// maximum acc when measure is set, and sets d[i] = 1/sum when invert is
// set and the sum is positive. It returns the new maximum.
func finish(d, sums []float64, i int, sum float64, invert, measure bool, acc float64) float64 {
	if sums != nil {
		sums[i] = sum
	}
	if measure {
		if e := math.Abs(sum*d[i] - 1.0); e > acc {
			acc = e
		}
	}
	if invert && sum > 0 {
		d[i] = 1.0 / sum
	}
	return acc
}

// Entry returns the scaled entry dr[i]*v*dc[j] for the p-th stored entry of
// row i. It is a convenience for tests and debugging.
func Entry(a *sparse.CSR, dr, dc []float64, i, p int) float64 {
	v := 1.0
	if a.Val != nil {
		v = a.Val[p]
	}
	return dr[i] * v * dc[a.Idx[p]]
}

func ones(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = 1
	}
	return d
}
