package core

import (
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// TwoSided's sampling visits the rows of each side in their degree order
// (sparse.DegreeOrder). The prefix walk of sampleRow stops at the first
// prefix sum that reaches the draw, after a data-dependent number of
// steps, so its loop exit mispredicts about once per row. The rows of one
// group share their degree, so walking a group runs one fixed trip count
// and selects the drawn entry by counting instead of exiting. Every row
// still draws from its own indexed RNG stream, so the visit order changes
// no choice, and FuzzSampleGrouped holds the counting draw to sampleRow's
// walk row by row.

// drawSide is one side of a sampling region: the rows of a, visited in
// ord, each drawing one column weighted by w (the other side's scaling
// vector; nil for uniform draws), with tot the precomputed row totals or
// nil. Row i stores its draw j as out[i] = off+j; an empty row i stores
// loop+i, its own vertex id in a ChoiceGraph, or NIL when loop is NIL.
type drawSide struct {
	a         *sparse.CSR
	w, tot    []float64
	ord       *sparse.DegreeOrder
	out       []int32
	off, loop int32
}

// empty is the value an empty row i stores.
func (d *drawSide) empty(i int32) int32 {
	if d.loop == NIL {
		return NIL
	}
	return d.loop + i
}

// draw samples the rows at positions [lo, hi) of the degree order. Empty
// rows take no draw. A row of degree 1 takes its one entry, which is what
// every branch of sampleRow returns for it. Rows of degree 2 to
// sparse.MaxFixedDegree draw with drawFixed when the matrix has no edge
// values and the draw is scaled; every other row calls sampleRow.
func (d *drawSide) draw(base uint64, lo, hi int) {
	a, o := d.a, d.ord
	fixed := a.Val == nil && d.w != nil
	var rng xrand.SplitMix64
	for g := 0; g < sparse.DegreeGroups; g++ {
		glo, ghi := max(lo, o.Start[g]), min(hi, o.Start[g+1])
		if glo >= ghi {
			continue
		}
		rows := o.Rows[glo:ghi]
		switch {
		case g == 0:
			for _, i := range rows {
				d.out[i] = d.empty(i)
			}
		case g == 1:
			for _, i := range rows {
				d.out[i] = d.off + a.Idx[a.Ptr[i]]
			}
		case g <= sparse.MaxFixedDegree && fixed:
			drawFixed(a, d.w, d.tot, base, rows, g, d.out, d.off)
		default:
			for _, i := range rows {
				rng.SetIndexed(base, int(i))
				d.out[i] = d.off + sampleRow(a, d.w, int(i), d.tot, &rng)
			}
		}
	}
}

// drawFixed draws the given rows, all of degree deg, from a matrix without
// edge values under the weights w. With r the draw, it takes entry
// min(#{q : !(prefix_q ≥ r)}, deg−1) of the row over a fixed trip count.
// Prefix sums of non-negative weights never decrease, so the count is the
// position of the first prefix sum that reaches r, which is the entry
// sampleRow's walk stops at; when none does (a NaN total, or round-off),
// both take the last entry. A row whose total is not positive keeps
// sampleRow's uniform fallback.
func drawFixed(a *sparse.CSR, w, tot []float64, base uint64, rows []int32, deg int, out []int32, off int32) {
	var rng xrand.SplitMix64
	for _, r := range rows {
		i := int(r)
		s := a.Ptr[i]
		row := a.Idx[s : s+deg : s+deg]
		rng.SetIndexed(base, i)
		var total float64
		if tot != nil {
			total = tot[i]
		} else {
			for _, j := range row {
				total += w[j]
			}
		}
		if total <= 0 {
			out[i] = off + sampleRow(a, w, i, tot, &rng)
			continue
		}
		x := rng.Float64Open() * total
		acc, k := 0.0, 0
		for _, j := range row {
			acc += w[j]
			k += b2i(!(acc >= x))
		}
		out[i] = off + row[min(k, deg-1)]
	}
}

// b2i converts a bool to 0 or 1; the compiler emits a flag set, not a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
