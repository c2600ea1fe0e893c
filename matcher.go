package bipartite

import (
	"errors"

	"repro/internal/auction"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/ks"
)

// ErrCanceled reports a matching call that was aborted by its cancellation
// hook before producing a result — in the serving stack, a request whose
// context deadline expired mid-kernel. The batch layer translates it back
// into the request context's own error.
var ErrCanceled = errors.New("bipartite: matching canceled")

// Matcher is a reusable matching session bound to one graph; Run executes
// Specs on it. It owns preallocated workspaces for every pipeline stage —
// OneSided's row draws, the 1-out choice graph, the Karp–Sipser match and
// degree arrays, the refinement buffers — so repeated Run calls perform
// near-zero allocations (a reused TwoSided Run stays within two
// allocations at one worker). Graph.Match is Run on a throwaway Matcher,
// so a reused session reproduces the one-shot call exactly (for
// AlgKarpSipserParallel, at Workers: 1; see the package-level
// determinism contract).
//
// The scaling is seed- and width-independent, so the bound Graph keeps it
// (one per iteration count) and shares it read-only with every Matcher,
// one-shot call, batch slot and dynamic session on it: only the first call
// on a graph pays for the scaling stage, whichever session makes it.
//
// Aliasing contract: results returned by a Matcher point into its
// workspaces and are valid only until the next call on the same Matcher
// (or Reset). Callers that retain results across calls copy them first.
// The scaling is the exception: it belongs to the Graph, stays valid as
// long as the Graph does, and is never to be modified.
// A Matcher is not safe for concurrent use; for concurrent serving run one
// Matcher per worker slot (see MatchBatch and Server, which do exactly
// that) or one-shot Graph.Match calls, which are safe because each builds
// its own.
type Matcher struct {
	g   *Graph
	opt Options // normalized

	sess     *core.Session
	ksWs     *ks.Workspace     // lazily created by AlgKarpSipser runs
	ksApprox *ks.ApproxSession // lazily created by AlgKarpSipserParallel runs
	refWs    *exact.Workspace  // lazily created by refining Specs

	sc     *Scaling    // the bound graph's scaling; nil until a call scales
	result MatchResult // reused result header

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
	return &Matcher{g: g, opt: opt.normalized()}
}

// session returns the sampling-kernel session, building it on first use:
// the graph's degree orders, the pending cancellation hook and any
// scaling already taken are installed into the fresh session so lazy
// construction is invisible to the callers.
func (m *Matcher) session() *core.Session {
	if m.sess == nil {
		m.sess = core.NewSession(m.g.a, m.g.transpose(), m.opt.coreOptions())
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
// allocation-free apart from each new graph's scaling, which that graph
// keeps). The next call that scales takes the new graph's scaling from
// it, computing it only if no call on that graph has yet. Results from
// before the Reset are invalidated.
func (m *Matcher) Reset(g *Graph) {
	m.g = g
	if m.sess != nil {
		m.sess.Rebind(g.a, g.transpose())
		m.sess.SetDegreeOrders(g.degreeOrders())
	}
	if m.ksApprox != nil {
		m.ksApprox.Rebind(g.a, g.transpose())
	}
	m.sc = nil
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

// Scale returns the scaling of the bound graph: the Graph's own for the
// session's iteration count, computed by the first call on the Graph that
// needs it and shared read-only with every other (see the Matcher doc).
// Run scales through it, and scaling-only workflows call it directly. A
// canceled compute returns ErrCanceled and leaves the session and the
// Graph free to retry.
func (m *Matcher) Scale() (*Scaling, error) {
	if m.sc != nil {
		return m.sc, nil
	}
	sc, err := m.g.scaling(m.opt, m.cancel)
	if err != nil {
		return nil, err
	}
	m.sc = sc
	if m.sess != nil {
		m.sess.SetScaling(sc.DR, sc.DC, sc.RowSums, sc.ColSums)
	}
	return sc, nil
}
