package bipartite

import (
	"errors"

	"repro/internal/auction"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/ks"
	"repro/internal/par"
	"repro/internal/scale"
)

// ErrCanceled reports a matching call that was aborted by its cancellation
// hook before producing a result — in the serving stack, a request whose
// context deadline expired mid-kernel. The batch layer translates it back
// into the request context's own error.
var ErrCanceled = errors.New("bipartite: matching canceled")

// Matcher is a reusable matching session bound to one graph; Run executes
// Specs on it. It caches the transpose and the scaling of the bound graph
// and owns preallocated workspaces for every pipeline stage — scaling
// vectors and sums, row and column choice buffers, the 1-out choice graph,
// the Karp–Sipser match and degree arrays, the refinement buffers — so
// repeated Run and Scale calls perform near-zero allocations (a reused
// TwoSided Run stays within two allocations at one worker). Graph.Match is
// Run on a throwaway Matcher, so a reused session reproduces the one-shot
// call exactly wherever the pipeline is deterministic (see the
// package-level determinism contract — everything at Workers: 1; choices,
// scalings and sizes at any width).
//
// The scaling of a graph is seed-independent, so it is computed once per
// binding and shared by every subsequent call — the second and later calls
// on the same graph skip the scaling stage entirely, which is where most
// of the session's speedup on small instances comes from.
//
// Aliasing contract: results returned by a Matcher point into its
// workspaces and are valid only until the next call on the same Matcher
// (or Reset). Callers that retain results across calls copy them first.
// A Matcher is not safe for concurrent use; for concurrent serving run one
// Matcher per worker slot (see MatchBatch and Server, which do exactly
// that) or one-shot Graph.Match calls, which are safe because each builds
// its own.
type Matcher struct {
	g   *Graph
	opt Options // normalized

	sess     *core.Session
	scaleWs  *scale.Workspace
	ksWs     *ks.Workspace     // lazily created by AlgKarpSipser runs
	ksApprox *ks.ApproxSession // lazily created by AlgKarpSipserParallel runs
	refWs    *exact.Workspace  // lazily created by refining Specs

	sc      *Scaling // cached scaling of the bound graph; nil until computed
	scErr   error
	scaling Scaling     // backing storage for sc on the workspace path
	result  MatchResult // reused result header

	// best is the session-owned winner buffer of ensemble runs (Spec with
	// Ensemble > 1): candidates alias the kernel workspaces, so the best
	// one so far is copied here before the next candidate overwrites them.
	best Matching
	// ksStats holds the phase statistics of the latest Karp–Sipser run
	// (the winner's, for ensembles); bestKS tracks the leader mid-ensemble.
	ksStats, bestKS KarpSipserStats

	// ensSlots are the per-worker child arenas of parallel ensembles: when
	// Run fans a best-of-K Spec out across the pool, worker w draws a
	// width-1 Matcher for the bound graph from ensSlots[w] — the same
	// shape-keyed recycling the batch engine's slots use, so a session that
	// Resets across a stream of same-shaped graphs keeps its ensemble
	// arenas warm too. Each slot is touched only by the worker that owns
	// it for the duration of a parallel region.
	ensSlots []arenaCache

	// aucWs holds the auction engine's scratch buffers (bid slots, queues,
	// the cascade worklist) plus the price vector of the latest run;
	// lazily created by AlgAuction Specs and reused across runs like the
	// sampling workspaces.
	aucWs *auction.Workspace

	// cancel is the cooperative cancellation hook threaded through every
	// kernel stage; see setCancel.
	cancel func() bool
}

// NewMatcher creates a matching session on g. opt follows the same
// defaulting rules as Graph.Match; opt.Seed is the default seed for Specs
// whose Seed is 0. The session pins its pool and parallel width at
// construction. The sampling workspaces (and the graph transpose) are
// built lazily on the first call that needs them, so a Matcher used only
// for the cheap baselines never pays for either.
func (g *Graph) NewMatcher(opt *Options) *Matcher {
	return &Matcher{g: g, opt: opt.normalized(), scaleWs: &scale.Workspace{}}
}

// session returns the sampling-kernel session, building it on first use:
// the graph's degree orders, the pending cancellation hook and any
// already-cached scaling are installed into the fresh session so lazy
// construction is invisible to the callers.
func (m *Matcher) session() *core.Session {
	if m.sess == nil {
		m.sess = core.NewSession(m.g.a, m.g.transpose(), m.opt.coreOptions(nil))
		m.sess.SetDegreeOrders(m.g.degreeOrders())
		m.sess.SetCancel(m.cancel)
		if m.sc != nil {
			m.sess.SetScaling(m.sc.DR, m.sc.DC, m.sc.RowSums, m.sc.ColSums)
		}
	}
	return m.sess
}

// Reset rebinds the session to a different graph, reusing every workspace
// that is large enough (binding a stream of same-shaped graphs is
// allocation-free apart from the new graph's own scaling sweeps). The
// cached scaling is discarded and recomputed on the next call that needs
// it. Results from before the Reset are invalidated.
func (m *Matcher) Reset(g *Graph) {
	m.g = g
	if m.sess != nil {
		m.sess.Rebind(g.a, g.transpose())
		m.sess.SetDegreeOrders(g.degreeOrders())
	}
	if m.ksApprox != nil {
		m.ksApprox.Rebind(g.a, g.transpose())
	}
	m.sc, m.scErr = nil, nil
}

// Graph returns the graph the session is currently bound to.
func (m *Matcher) Graph() *Graph { return m.g }

// setCancel installs (or clears, with nil) the session's cooperative
// cancellation hook; the scaling, sampling and Karp–Sipser stages all poll
// it at chunk granularity. The hook must be cheap, concurrency-safe and
// monotone (once true, always true — a context's Err is). A canceled Run
// returns ErrCanceled and leaves the session reusable; the batch engine
// arms this per request from the request's context.
func (m *Matcher) setCancel(cancel func() bool) {
	m.cancel = cancel
	if m.sess != nil {
		m.sess.SetCancel(cancel)
	}
}

// canceled reports whether the session's cancellation hook has fired.
func (m *Matcher) canceled() bool { return m.cancel != nil && m.cancel() }

// installScaling hands the session a precomputed scaling of the bound
// graph — the shared per-graph once-cell of the batch engine — so the slot
// skips its own Sinkhorn–Knopp run entirely. The scaling must be that of
// the bound graph under the session's options; sc's slices are retained.
func (m *Matcher) installScaling(sc *Scaling) {
	if m.sc == sc {
		return
	}
	m.sc, m.scErr = sc, nil
	if m.sess != nil {
		m.sess.SetScaling(sc.DR, sc.DC, sc.RowSums, sc.ColSums)
	}
}

// refineWs returns the session's refinement workspace, building it on
// first use: the Hopcroft–Karp, push-relabel and graft refiners all run on
// it, so a session issuing repeated refining Specs (the ensemble+refine
// serving pattern) reuses one set of refinement buffers and stays
// allocation-free in steady state. One refiner is live on it at a time —
// exactly the Spec engine's shape, which never interleaves two refiners.
func (m *Matcher) refineWs() *exact.Workspace {
	if m.refWs == nil {
		m.refWs = &exact.Workspace{}
	}
	return m.refWs
}

// refineWidth resolves the session's pool (or the process default) and
// its parallel width, Options.Workers capped by the pool's width. Graft
// phases and auction candidates fan out across it; ensembleWidth caps it
// further by the candidate count.
func (m *Matcher) refineWidth() (*par.Pool, int) {
	pool := m.opt.Pool.inner()
	if pool == nil {
		pool = par.Default()
	}
	width := pool.Workers(m.opt.Workers)
	if width > pool.Width() {
		width = pool.Width()
	}
	return pool, width
}

// growEnsembleSlots sizes the per-worker arena caches of parallel
// ensembles before a fan-out region starts (workers must never grow the
// slice concurrently). Existing slots keep their warm arenas.
func (m *Matcher) growEnsembleSlots(width int) {
	for len(m.ensSlots) < width {
		m.ensSlots = append(m.ensSlots, arenaCache{})
	}
}

// seed resolves a per-call seed: 0 means the session's Options.Seed.
func (m *Matcher) seed(s uint64) uint64 {
	if s == 0 {
		return m.opt.Seed
	}
	return s
}

// Scale returns the scaling of the bound graph, computing it on first use
// and serving it from the session cache afterwards; Run scales through it,
// and scaling-only workflows call it directly. The result aliases the
// session workspace (see the Matcher aliasing contract).
func (m *Matcher) Scale() (*Scaling, error) {
	if m.sc != nil || m.scErr != nil {
		return m.sc, m.scErr
	}
	res, err := m.g.scaleRaw(m.opt, m.scaleWs, m.cancel)
	if err != nil {
		if errors.Is(err, scale.ErrCanceled) {
			// Cancellation is a property of the call, not the graph: do
			// not poison the cache — the next (uncanceled) call rescales.
			return nil, ErrCanceled
		}
		m.scErr = err
		return nil, err
	}
	m.scaling = Scaling{DR: res.DR, DC: res.DC, Iterations: res.Iters, Error: res.Err,
		History: res.History, RowSums: res.RSum, ColSums: res.CSum}
	m.sc = &m.scaling
	if m.sess != nil {
		m.sess.SetScaling(res.DR, res.DC, res.RSum, res.CSum)
	}
	return m.sc, nil
}
