package exact

import "repro/internal/sparse"

// Workspace holds the reusable state of the incremental refiners — the
// refiner structs themselves plus the backing store of the matching they
// hold — so a caller that refines repeatedly (a Matcher session, the
// ensemble engine) constructs refiners allocation-free once the buffers
// have grown to the graph's shape.
//
// One refiner is live per workspace at a time: constructing a new refiner
// on the workspace invalidates the previous one and the matching it held.
type Workspace struct {
	hk    HKRefiner
	pr    PRRefiner
	graft GraftRefiner
	mt    Matching
}

// matching resets the workspace-backed matching to a copy of init (nil
// means empty) at shape n×m and returns it.
func (ws *Workspace) matching(n, m int, init *Matching) *Matching {
	mt := &ws.mt
	mt.RowMate = growInt32(mt.RowMate, n)
	mt.ColMate = growInt32(mt.ColMate, m)
	if init != nil {
		copy(mt.RowMate, init.RowMate)
		copy(mt.ColMate, init.ColMate)
		mt.Size = init.Size
		return mt
	}
	for i := range mt.RowMate {
		mt.RowMate[i] = NIL
	}
	for j := range mt.ColMate {
		mt.ColMate[j] = NIL
	}
	mt.Size = 0
	return mt
}

// NewHKRefinerWs is NewHKRefiner on a reusable Workspace: the search
// arrays and the held matching live in ws, so repeated constructions on
// same-shaped graphs allocate nothing but a byte per column, for the pass
// over a's entries that counts its non-isolated columns. The returned
// refiner (and its Matching) are valid until the workspace's next
// construction. A caller that knows the count passes it to
// NewHKRefinerLive instead.
func NewHKRefinerWs(a *sparse.CSR, init *Matching, ws *Workspace) *HKRefiner {
	return NewHKRefinerLive(a, init, ws, countLiveCols(a))
}

// NewHKRefinerLive is NewHKRefinerWs given liveCols, the number of
// non-isolated columns of a, which a Phase compares with the exposed
// rows (see Phase). One sweep over the rows sets the refiner up.
func NewHKRefinerLive(a *sparse.CSR, init *Matching, ws *Workspace, liveCols int) *HKRefiner {
	n := a.RowsN
	r := &ws.hk
	r.a = a
	r.mt = ws.matching(n, a.ColsN, init)
	r.dist = growInt32(r.dist, n)
	r.arc = growInt(r.arc, n)
	r.free = growInt32(r.free, n)[:0]
	r.spare = liveCols
	for i := 0; i < n; i++ {
		r.dist[i] = inf
		if a.Ptr[i] < a.Ptr[i+1] {
			r.spare--
			if r.mt.RowMate[i] == NIL {
				r.free = append(r.free, int32(i))
			}
		}
	}
	r.queue = r.queue[:0]
	r.stack = r.stack[:0]
	r.done = false
	return r
}

// countLiveCols counts the non-isolated columns of a in one pass over its
// entries.
func countLiveCols(a *sparse.CSR) int {
	seen := make([]bool, a.ColsN)
	live := 0
	for _, j := range a.Idx {
		if !seen[j] {
			seen[j] = true
			live++
		}
	}
	return live
}

// NewPRRefinerWs is NewPRRefiner on a reusable Workspace, with the same
// reuse contract as NewHKRefinerWs.
func NewPRRefinerWs(a *sparse.CSR, init *Matching, ws *Workspace) *PRRefiner {
	n, m := a.RowsN, a.ColsN
	r := &ws.pr
	r.a = a
	r.mt = ws.matching(n, m, init)
	r.limit = int32(n + m + 1)
	r.psi = growInt32(r.psi, m)
	for j := range r.psi {
		r.psi[j] = 0
	}
	r.stack = r.stack[:0]
	for i := n - 1; i >= 0; i-- {
		if r.mt.RowMate[i] == NIL && a.Degree(i) > 0 {
			r.stack = append(r.stack, int32(i))
		}
	}
	return r
}

// growInt32 returns s resized to n, reallocating only on capacity growth.
// Contents are unspecified; callers initialize what they read.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growUint64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		s = make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}
