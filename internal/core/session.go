package core

import (
	"repro/internal/buf"
	"repro/internal/exact"
	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// Session is the reusable-workspace form of the matching pipeline: it is
// bound to one matrix (and its transpose) and owns every buffer the
// OneSided and TwoSided kernels touch — OneSided's row draws and cmatch
// array, the ChoiceGraph TwoSided's sampling region writes vertex ids
// into, the match/mark/deg arrays of Algorithm 4 and the decoded matching
// — plus the sampling region's loop body, built once at construction.
// Each call sizes only the buffers it uses, so a session that only runs
// OneSided never sizes TwoSided's. Repeated calls therefore
// perform no steady-state allocations: a call sets the per-call RNG bases,
// dispatches the prebuilt body on the (recycled) loop runtime, and
// decodes into the resident matching.
//
// Both heuristics sample in one parallel region, in each side's degree
// order (see sparse.DegreeOrder), and then match on the calling
// goroutine: OneSided claims its columns in index order, TwoSided runs
// the branch-free serial Karp–Sipser kernel, ksSerial, which polls the
// cancellation hook every chunk like any region
// (TestSessionWidth1CancelMidKarpSipser). A call's result is therefore
// the same at every worker count, policy and pool width, and equal to the
// one-shot functions, which are themselves thin wrappers over a throwaway
// Session; TestSessionReuseBitIdentical gates that. SetDegreeOrders
// installs orders the caller keeps, and a session without them builds its
// own on its first call after NewSession or Rebind.
//
// The returned Result/Matching/choice slices alias the session and are
// only valid until the next call on the same Session (or Rebind); callers
// that need to retain a result copy it out. A Session is not safe for
// concurrent use — concurrency comes from running many sessions side by
// side on a shared pool (see the batch layer in the public package).
type Session struct {
	a, at *sparse.CSR
	opt   Options
	pool  *par.Pool
	chunk int

	// Scaling state for the current matrix; see SetScaling.
	dr, dc     []float64
	rtot, ctot []float64

	// Per-call RNG bases, written before the sampling region is dispatched.
	rbase, cbase uint64

	// cancel, when non-nil, is the cooperative cancellation hook: every
	// parallel region polls it between chunks (par.ForCancel) and the
	// pipeline polls it between regions. See SetCancel.
	cancel func() bool

	// Degree orders of a and at; see SetDegreeOrders.
	rord, cord *sparse.DegreeOrder
	// The two sides of the sampling region, set up by each call.
	rside, cside drawSide

	ochoice, cmatch  []int32 // OneSided: each row's column draw (or NIL), and the claims
	cg               ChoiceGraph
	match, mark, deg []int32

	// Alias-method sampling tables (Options.Alias); stale until the next
	// ensureAlias after Rebind or SetScaling.
	aliasA, aliasAT aliasTable
	aliasBuilt      bool
	matching        exact.Matching
	result          Result

	sample func(w, lo, hi int)
}

// NewSession binds a session to the matrix a and its transpose at (nil
// for a session that only runs OneSided). The pool, worker count and
// scheduling policies are pinned from opt at construction (opt.Seed and
// the totals are ignored here; seeds are per call and scaling state is
// set with SetScaling).
func NewSession(a, at *sparse.CSR, opt Options) *Session {
	s := &Session{opt: opt, pool: opt.pool(), chunk: opt.chunk()}
	// The body reads the session fields at execution time, so one closure
	// survives Rebind, SetScaling and per-call reseeding.
	//
	// The region runs over [0, n+m) for TwoSided and [0, n) for OneSided:
	// the row and column loops are independent (disjoint outputs, RNG
	// streams keyed by the element index), so a single dispatch
	// interleaves them freely — the columns of a row-imbalanced instance
	// fill the bubbles of the row loop and vice versa — and the sampled
	// choices are identical to running them back to back.
	s.sample = func(_, lo, hi int) {
		n := s.a.RowsN
		if lo < n {
			if s.aliasBuilt {
				s.rside.aliasRange(&s.aliasA, s.rbase, lo, min(hi, n))
			} else {
				s.rside.draw(s.rbase, lo, min(hi, n))
			}
		}
		if hi > n {
			if s.aliasBuilt {
				s.cside.aliasRange(&s.aliasAT, s.cbase, max(lo-n, 0), hi-n)
			} else {
				s.cside.draw(s.cbase, max(lo-n, 0), hi-n)
			}
		}
	}
	s.Rebind(a, at)
	return s
}

// Rebind points the session at a different matrix. The workspaces are
// resized by the next call that uses them (shrinking never reallocates,
// so cycling through same-shaped graphs is allocation-free after the
// first). Scaling state and degree orders are cleared; call SetScaling
// (and SetDegreeOrders) before the next matching call that needs them.
func (s *Session) Rebind(a, at *sparse.CSR) {
	s.a, s.at = a, at
	s.rord, s.cord = nil, nil
	s.cg.N, s.cg.M = a.RowsN, a.ColsN
	s.SetScaling(nil, nil, nil, nil)
}

// decoded returns the session's matching, sized for the bound matrix.
func (s *Session) decoded() *exact.Matching {
	s.matching.RowMate = buf.Grow(s.matching.RowMate, s.a.RowsN)
	s.matching.ColMate = buf.Grow(s.matching.ColMate, s.a.ColsN)
	return &s.matching
}

// SetCancel installs (or clears, with nil) the session's cooperative
// cancellation hook. While set, TwoSided and OneSided poll it at chunk
// granularity inside every parallel region and between regions; once it
// reports true the running call abandons its remaining work and returns
// nil. The hook must be cheap, safe for concurrent use and monotone —
// once it reports true it must keep reporting true, as a context's Err
// does — because the pipeline re-polls it at checkpoints to decide whether
// earlier regions ran to completion. A canceled call leaves the
// session workspaces in an undefined but reusable state — the next call
// rewrites them from scratch.
func (s *Session) SetCancel(cancel func() bool) { s.cancel = cancel }

// canceled reports whether the session's cancellation hook has fired.
func (s *Session) canceled() bool { return s.cancel != nil && s.cancel() }

// SetScaling installs the scaling vectors (nil for uniform sampling) and,
// optionally, the precomputed row/column sampling totals for the bound
// matrix. The slices are retained, not copied, so a scaling workspace that
// rewrites them in place keeps feeding the session without further calls.
func (s *Session) SetScaling(dr, dc, rowTotals, colTotals []float64) {
	s.dr, s.dc = dr, dc
	s.rtot, s.ctot = rowTotals, colTotals
	s.aliasBuilt = false // tables bake the scaling in; rebuild on next use
}

// SetDegreeOrders installs the degree orders of the bound matrix (rows)
// and of its transpose (cols) for the sampling region to walk. The
// orders are retained, not copied; Rebind clears them.
func (s *Session) SetDegreeOrders(rows, cols *sparse.DegreeOrder) { s.rord, s.cord = rows, cols }

// Matrix returns the matrix the session is currently bound to.
func (s *Session) Matrix() *sparse.CSR { return s.a }

// TwoSided runs TwoSidedMatch (Algorithm 3) with the given seed on the
// bound matrix, reusing every workspace: it samples row and column
// choices in one parallel region, then matches the 1-out graph with
// ksSerial on the calling goroutine. See Session for the aliasing
// contract of the returned Result. If the session's cancellation hook
// (SetCancel) fires mid-run, the call returns nil and no result is
// produced.
func (s *Session) TwoSided(seed uint64) *Result {
	if s.canceled() {
		return nil
	}
	n, m := s.a.RowsN, s.a.ColsN
	if s.rord == nil {
		s.rord = sparse.NewDegreeOrder(s.a)
	}
	if s.cord == nil {
		s.cord = sparse.NewDegreeOrder(s.at)
	}
	s.cg.Choice = buf.Grow(s.cg.Choice, n+m)
	s.match = buf.Grow(s.match, n+m)
	s.mark = buf.Grow(s.mark, n+m)
	s.deg = buf.Grow(s.deg, n+m)
	s.ensureAlias()
	s.rbase = xrand.Base(seed)
	s.cbase = xrand.Base(seed ^ colSeedSalt)
	s.rside = drawSide{a: s.a, w: s.dc, tot: s.rtot, ord: s.rord, out: s.cg.Choice[:n], off: int32(n)}
	s.cside = drawSide{a: s.at, w: s.dr, tot: s.ctot, ord: s.cord, out: s.cg.Choice[n:], loop: int32(n)}
	s.pool.ForCancel(n+m, s.opt.Workers, s.opt.Policy, s.chunk, s.cancel, s.sample)
	ksSerial(s.cg.Choice, s.match, s.mark, s.deg, n, s.chunk, s.cancel)
	// One checkpoint after the sampling region and the kernel suffices: a
	// hook that fired inside either left later work unrun, so the decoded
	// state below would be garbage either way.
	if s.canceled() {
		return nil
	}

	decodeMatchInto(&s.cg, s.match, s.decoded())
	s.result = Result{Match: s.match, Matching: &s.matching, Graph: &s.cg}
	return &s.result
}

// OneSided runs OneSidedMatch (Algorithm 2) with the given seed on the
// bound matrix. Every row draws one column in the sampling region; then,
// on the calling goroutine, the rows claim their columns in index order,
// so the largest row that chose a column keeps it — what the paper's
// concurrent last-write-wins stores give when one worker runs them in
// index order. It returns the session-owned cmatch array and the matching
// cardinality. If the session's cancellation hook (SetCancel) fires
// mid-run, the call returns (nil, 0).
func (s *Session) OneSided(seed uint64) ([]int32, int) {
	if s.canceled() {
		return nil, 0
	}
	n := s.a.RowsN
	if s.rord == nil {
		s.rord = sparse.NewDegreeOrder(s.a)
	}
	s.ochoice = buf.Grow(s.ochoice, n)
	s.cmatch = buf.Grow(s.cmatch, s.a.ColsN)
	s.ensureAlias()
	s.rbase = xrand.Base(seed)
	s.rside = drawSide{a: s.a, w: s.dc, tot: s.rtot, ord: s.rord, out: s.ochoice, loop: NIL}
	s.pool.ForCancel(n, s.opt.Workers, s.opt.Policy, s.chunk, s.cancel, s.sample)
	if s.canceled() {
		return nil, 0
	}
	for j := range s.cmatch {
		s.cmatch[j] = NIL
	}
	size := 0
	for i, j := range s.ochoice {
		if j != NIL {
			size += b2i(s.cmatch[j] == NIL)
			s.cmatch[j] = int32(i)
		}
	}
	return s.cmatch, size
}

// OneSidedMatching is OneSided decoded into the session-owned row/column
// matching (nil on cancellation, like OneSided).
func (s *Session) OneSidedMatching(seed uint64) (*exact.Matching, int) {
	cmatch, size := s.OneSided(seed)
	if cmatch == nil {
		return nil, 0
	}
	cmatchInto(cmatch, s.decoded())
	return &s.matching, size
}
