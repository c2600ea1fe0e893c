package core

import (
	"sync/atomic"

	"repro/internal/sparse"
	"repro/internal/xrand"
)

// Walker alias tables for the sampling kernels: after an O(deg) per-row
// build, each draw is O(1) — one uniform slot pick plus one coin flip —
// instead of the O(deg) prefix walk of sampleRow. The tables depend on
// the matrix and its scaling vectors, so the session invalidates them on
// Rebind and SetScaling and rebuilds lazily (once per bound graph) on the
// next sampling call. Opt-in via Options.Alias: the two-draw consumption
// of the per-vertex RNG stream makes seeded choices differ from (while
// being distributed identically to) the prefix-walk kernels'.

// aliasBuildHook, when set, is invoked once per alias-table build — the
// test seam that proves the build is counter-gated to once per graph.
var aliasBuildHook atomic.Pointer[func()]

// aliasTable holds the per-edge alias slots of one matrix side. Slot p
// (an absolute CSR edge position) is picked uniformly within its row;
// the draw keeps p with probability prob[p] and otherwise takes the
// aliased position alt[p] of the same row.
type aliasTable struct {
	prob []float64
	alt  []int32
}

// build fills the table for matrix a weighted by dc (the column-side
// scaling factors; nil for uniform). Per row, Walker's small/large
// pairing runs over the row's edges in place: probabilities are
// normalized to mean 1 (p_k = w_k·deg/total), each small slot is topped
// up by a large one, and every slot ends with alt set. Degenerate rows
// (total ≤ 0) fall back to uniform slots, mirroring sampleRow.
func (t *aliasTable) build(a *sparse.CSR, dc []float64) {
	nnz := len(a.Idx)
	if cap(t.prob) < nnz {
		t.prob = make([]float64, nnz)
		t.alt = make([]int32, nnz)
	}
	t.prob = t.prob[:nnz]
	t.alt = t.alt[:nnz]
	var small, large []int32
	for i := 0; i < a.RowsN; i++ {
		s, e := a.Ptr[i], a.Ptr[i+1]
		deg := e - s
		if deg == 0 {
			continue
		}
		var total float64
		for p := s; p < e; p++ {
			total += weight(a, dc, p)
		}
		if total <= 0 {
			for p := s; p < e; p++ {
				t.prob[p] = 1
				t.alt[p] = int32(p)
			}
			continue
		}
		scale := float64(deg) / total
		small, large = small[:0], large[:0]
		for p := s; p < e; p++ {
			t.prob[p] = weight(a, dc, p) * scale
			if t.prob[p] < 1 {
				small = append(small, int32(p))
			} else {
				large = append(large, int32(p))
			}
		}
		for len(small) > 0 && len(large) > 0 {
			sm := small[len(small)-1]
			small = small[:len(small)-1]
			lg := large[len(large)-1]
			t.alt[sm] = lg
			// The large slot donates 1−prob[sm] of its mass to top the
			// small slot up to exactly 1.
			t.prob[lg] -= 1 - t.prob[sm]
			if t.prob[lg] < 1 {
				large = large[:len(large)-1]
				small = append(small, lg)
			}
		}
		// Round-off leftovers saturate at probability 1 (alias unused).
		for _, p := range small {
			t.prob[p] = 1
			t.alt[p] = p
		}
		for _, p := range large {
			t.prob[p] = 1
			t.alt[p] = p
		}
	}
}

// sampleRowAlias draws one entry of row i from the prebuilt table: a
// uniform slot pick plus one coin flip, O(1) per draw.
func sampleRowAlias(a *sparse.CSR, t *aliasTable, i int, rng *xrand.SplitMix64) int32 {
	s, e := a.Ptr[i], a.Ptr[i+1]
	if s == e {
		return NIL
	}
	p := s + rng.Intn(e-s)
	if rng.Float64() < t.prob[p] {
		return a.Idx[p]
	}
	return a.Idx[t.alt[p]]
}

// aliasRange draws rows [lo, hi) of the side, in index order, from the
// side's alias table t: per-row indexed RNG streams keep the draws
// bit-identical at any worker count.
func (d *drawSide) aliasRange(t *aliasTable, base uint64, lo, hi int) {
	var rng xrand.SplitMix64
	for i := lo; i < hi; i++ {
		rng.SetIndexed(base, i)
		if j := sampleRowAlias(d.a, t, i, &rng); j == NIL {
			d.out[i] = d.empty(int32(i))
		} else {
			d.out[i] = d.off + j
		}
	}
}

// ensureAlias builds the session's alias tables if Options.Alias is set
// and they are stale (first sampling call after NewSession, Rebind or
// SetScaling). Called from the serial prologue of the sampling entry
// points, never from inside a parallel region.
func (s *Session) ensureAlias() {
	if !s.opt.Alias || s.aliasBuilt {
		return
	}
	if hook := aliasBuildHook.Load(); hook != nil {
		(*hook)()
	}
	s.aliasA.build(s.a, s.dc)
	if s.at != nil {
		s.aliasAT.build(s.at, s.dr)
	}
	s.aliasBuilt = true
}
