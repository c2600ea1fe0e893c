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
// OneSided and TwoSided kernels touch — the ChoiceGraph the sampling
// region writes vertex ids into, the match/mark/deg arrays of Algorithm 4,
// the cmatch array and the decoded matching — plus the parallel loop
// bodies themselves, built once at construction. Repeated calls therefore
// perform no steady-state allocations: a call sets the per-call RNG bases,
// dispatches the prebuilt bodies on the (recycled) loop runtime, and
// decodes into the resident matching. Results are bit-identical to the
// one-shot functions — which are themselves thin wrappers over a
// throwaway Session — wherever those are deterministic: everywhere at one
// worker; choices, sizes and scaling-derived state at any width (the
// parallel kernels' per-edge pairing depends on CAS claim order, session
// or not). TestSessionReuseBitIdentical gates that.
//
// TwoSided samples each side in its degree order at every width (see
// sparse.DegreeOrder): SetDegreeOrders installs orders the caller keeps,
// and a session without them builds its own on its first TwoSided call
// after NewSession or Rebind. A TwoSided call whose Karp–Sipser regions get one
// worker runs the branch-free serial kernel, ksSerial, which polls the
// cancellation hook every chunk like any region
// (TestSessionWidth1CancelMidKarpSipser); wider calls run the atomic
// kernel.
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

	// Per-call RNG bases, written before the bodies are dispatched.
	rbase, cbase, obase uint64

	// cancel, when non-nil, is the cooperative cancellation hook: every
	// parallel region polls it between chunks (par.ForCancel) and the
	// pipeline polls it between regions. See SetCancel.
	cancel func() bool

	// Degree orders of a and at; see SetDegreeOrders.
	rord, cord *sparse.DegreeOrder
	// The two sides of the sampling region, set up by each TwoSided call.
	rside, cside drawSide

	cg               ChoiceGraph
	match, mark, deg []int32
	twoSidedSized    bool // the four buffers above are sized for (a, at)
	cmatch           []int32

	// Alias-method sampling tables (Options.Alias); stale until the next
	// ensureAlias after Rebind or SetScaling.
	aliasA, aliasAT aliasTable
	aliasBuilt      bool
	matching        exact.Matching
	result          Result

	sampleBoth func(w, lo, hi int)
	oneSided   func(w, lo, hi int)
	ksInit     func(w, lo, hi int)
	ksLink     func(w, lo, hi int)
	ksPhase1   func(w, lo, hi int)
	ksPhase2   func(w, lo, hi int)
}

// NewSession binds a session to the matrix a and its transpose at. The
// pool, worker count and scheduling policies are pinned from opt at
// construction (opt.Seed and the totals are ignored here; seeds are per
// call and scaling state is set with SetScaling).
func NewSession(a, at *sparse.CSR, opt Options) *Session {
	s := &Session{opt: opt, pool: opt.pool(), chunk: opt.chunk()}
	// The bodies read the session fields at execution time, so one set of
	// closures survives Rebind, SetScaling and per-call reseeding.
	//
	// Row and column sampling fuse into one region over [0, n+m): the two
	// loops are independent (disjoint outputs, RNG streams keyed by the
	// element index), so a single dispatch interleaves them freely — the
	// columns of a row-imbalanced instance fill the bubbles of the row
	// loop and vice versa — and the sampled choices are identical to
	// running them back to back.
	s.sampleBoth = func(_, lo, hi int) {
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
	s.oneSided = func(_, lo, hi int) {
		if s.aliasBuilt {
			aliasOneSidedRange(s.a, &s.aliasA, s.obase, s.cmatch, lo, hi)
		} else {
			oneSidedRange(s.a, s.dc, s.rtot, s.obase, s.cmatch, lo, hi)
		}
	}
	s.ksInit = func(_, lo, hi int) { ksInitRange(s.match, s.mark, s.deg, lo, hi) }
	s.ksLink = func(_, lo, hi int) { ksLinkRange(s.cg.Choice, s.mark, s.deg, lo, hi) }
	s.ksPhase1 = func(_, lo, hi int) { ksPhase1Range(s.cg.Choice, s.match, s.mark, s.deg, lo, hi) }
	s.ksPhase2 = func(_, lo, hi int) { ksPhase2Range(s.cg.Choice, s.match, s.cg.N, lo, hi) }
	s.Rebind(a, at)
	return s
}

// Rebind points the session at a different matrix, growing the workspaces
// as needed (shrinking never reallocates, so cycling through same-shaped
// graphs is allocation-free after the first). The TwoSided-only buffers
// (choice graph, match/mark/deg) are sized lazily on the first TwoSided
// call, so a session used only for OneSided — including the one inside the
// one-shot wrapper — never pays the ~4·(n+m) words they cost. Scaling
// state and degree orders are cleared; call SetScaling (and
// SetDegreeOrders) before the next matching call that needs them.
func (s *Session) Rebind(a, at *sparse.CSR) {
	s.a, s.at = a, at
	s.rord, s.cord = nil, nil
	n, m := a.RowsN, a.ColsN
	s.cg.N, s.cg.M = n, m
	s.twoSidedSized = false
	s.cmatch = buf.Grow(s.cmatch, m)
	s.matching.RowMate = buf.Grow(s.matching.RowMate, n)
	s.matching.ColMate = buf.Grow(s.matching.ColMate, m)
	s.matching.Size = 0
	s.SetScaling(nil, nil, nil, nil)
}

// ensureTwoSided sizes the TwoSided-only workspaces for the bound matrix
// and builds the degree orders the caller did not install.
func (s *Session) ensureTwoSided() {
	if s.rord == nil {
		s.rord = sparse.NewDegreeOrder(s.a)
	}
	if s.cord == nil {
		s.cord = sparse.NewDegreeOrder(s.at)
	}
	if s.twoSidedSized {
		return
	}
	n, m := s.a.RowsN, s.a.ColsN
	s.cg.Choice = buf.Grow(s.cg.Choice, n+m)
	s.match = buf.Grow(s.match, n+m)
	s.mark = buf.Grow(s.mark, n+m)
	s.deg = buf.Grow(s.deg, n+m)
	s.twoSidedSized = true
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
// and of its transpose (cols) for TwoSided's sampling region to walk. The
// orders are retained, not copied; Rebind clears them.
func (s *Session) SetDegreeOrders(rows, cols *sparse.DegreeOrder) { s.rord, s.cord = rows, cols }

// Matrix returns the matrix the session is currently bound to.
func (s *Session) Matrix() *sparse.CSR { return s.a }

// TwoSided runs TwoSidedMatch (Algorithm 3) with the given seed on the
// bound matrix, reusing every workspace. See TwoSided for the algorithm
// and Session for the aliasing contract of the returned Result. If the
// session's cancellation hook (SetCancel) fires mid-run, the call returns
// nil and no result is produced.
func (s *Session) TwoSided(seed uint64) *Result {
	if s.canceled() {
		return nil
	}
	s.ensureTwoSided()
	s.ensureAlias()
	n, m := s.cg.N, s.cg.M
	s.rbase = xrand.Base(seed)
	s.cbase = xrand.Base(seed ^ colSeedSalt)
	s.rside = drawSide{a: s.a, w: s.dc, tot: s.rtot, ord: s.rord, out: s.cg.Choice[:n], off: int32(n)}
	s.cside = drawSide{a: s.at, w: s.dr, tot: s.ctot, ord: s.cord, out: s.cg.Choice[n:], loop: int32(n)}
	s.pool.ForCancel(n+m, s.opt.Workers, s.opt.Policy, s.chunk, s.cancel, s.sampleBoth)

	nm := n + m
	w, pol := s.opt.Workers, s.opt.KSPolicy
	if s.pool.Slots(nm, w) <= 1 {
		ksSerial(s.cg.Choice, s.match, s.mark, s.deg, n, s.chunk, s.cancel)
	} else {
		s.pool.ForCancel(nm, w, pol, s.chunk, s.cancel, s.ksInit)
		s.pool.ForCancel(nm, w, pol, s.chunk, s.cancel, s.ksLink)
		s.pool.ForCancel(nm, w, pol, s.chunk, s.cancel, s.ksPhase1)
		s.pool.ForCancel(m, w, pol, s.chunk, s.cancel, s.ksPhase2)
	}
	// One checkpoint after the sampling and kernel regions suffices: a hook
	// that fired inside any of them left later regions unrun, so the
	// decoded state below would be garbage either way.
	if s.canceled() {
		return nil
	}

	decodeMatchInto(&s.cg, s.match, &s.matching)
	s.result = Result{Match: s.match, Matching: &s.matching, Graph: &s.cg}
	return &s.result
}

// OneSided runs OneSidedMatch (Algorithm 2) with the given seed on the
// bound matrix. It returns the session-owned cmatch array and the matching
// cardinality; see OneSided for the concurrency semantics. If the
// session's cancellation hook (SetCancel) fires mid-run, the call returns
// (nil, 0).
func (s *Session) OneSided(seed uint64) ([]int32, int) {
	if s.canceled() {
		return nil, 0
	}
	s.ensureAlias()
	s.obase = xrand.Base(seed)
	for j := range s.cmatch {
		s.cmatch[j] = NIL
	}
	s.pool.ForCancel(s.a.RowsN, s.opt.Workers, s.opt.Policy, s.chunk, s.cancel, s.oneSided)
	if s.canceled() {
		return nil, 0
	}
	size := 0
	for _, i := range s.cmatch {
		if i != NIL {
			size++
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
	cmatchInto(cmatch, &s.matching)
	return &s.matching, size
}
