package bipartite

import (
	"errors"
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/scale"
)

// Options configures the randomized heuristics. The zero value (or a nil
// pointer) means: 5 Sinkhorn–Knopp scaling iterations, all CPUs of the
// process-wide pool, seed 1, the paper's scheduling policies. Scaling is
// always Sinkhorn–Knopp; the §2.2 alternatives (Ruiz, skew-aware row
// splitting) live in internal/scale for the ablation benchmarks.
type Options struct {
	// ScalingIterations is the number of Sinkhorn–Knopp iterations run
	// before sampling. 0 means uniform (unscaled) sampling, as in the
	// "0 iterations" columns of Tables 1–2. Negative means the default
	// of 5, which suffices for the guarantees on almost all instances
	// (paper §4.1).
	ScalingIterations int
	// Workers is the parallel width; <= 0 uses all CPUs.
	Workers int
	// Seed makes runs reproducible; 0 is replaced by 1.
	Seed uint64
	// Pool, when non-nil, is the worker pool every parallel stage of the
	// call dispatches to — scaling sweeps, sampling and the
	// AlgKarpSipserParallel baseline reuse its resident workers. Nil uses
	// the process-wide default pool. Servers that pin matching work to a
	// subset of cores create one Pool at startup and pass it on every
	// call.
	Pool *Pool
	// AliasSampling switches the sampling kernels' per-row neighbor draw
	// from the O(deg) prefix walk to O(1) alias-method tables, built once
	// per bound graph in O(nnz) on first use and reused across runs —
	// profitable for sessions that resample the same graph many times
	// (ensembles, servers). Opt-in because the alias draw consumes the
	// per-vertex RNG stream differently, so seeded results differ from
	// (while being distributed identically to) the default kernels'.
	AliasSampling bool
}

// Pool is a handle to a persistent set of parallel workers that matching
// calls can share; see Options.Pool. It wraps the internal loop runtime's
// pool so one warm worker set serves any number of Graph.Match,
// Matcher.Run and batch calls, concurrently if desired.
type Pool struct {
	p *par.Pool
}

// NewPool creates a pool of the given parallel width (resident workers
// plus the calling goroutine); width <= 0 means GOMAXPROCS. Close it when
// done.
func NewPool(width int) *Pool {
	return &Pool{p: par.NewPool(width)}
}

// Width reports the pool's parallel width.
func (p *Pool) Width() int { return p.p.Width() }

// Close releases the pool's resident workers. It must not be called while
// calls using the pool are in flight; it is idempotent.
func (p *Pool) Close() { p.p.Close() }

func (p *Pool) inner() *par.Pool {
	if p == nil {
		return nil
	}
	return p.p
}

func (o *Options) normalized() Options {
	var v Options
	if o != nil {
		v = *o
	}
	if v.ScalingIterations < 0 {
		v.ScalingIterations = 5
	}
	if o == nil {
		v.ScalingIterations = 5
	}
	if v.Seed == 0 {
		v.Seed = 1
	}
	return v
}

func (v Options) coreOptions() core.Options {
	return core.Options{
		Workers: v.Workers,
		Policy:  par.Dynamic,
		Chunk:   par.DefaultChunk,
		Seed:    v.Seed,
		Pool:    v.Pool.inner(),
		Alias:   v.AliasSampling,
	}
}

// Scaling is the result of a matrix scaling run: s_ij = DR[i]·DC[j] for
// each edge (i, j) of the pattern.
type Scaling struct {
	DR, DC []float64
	// Iterations actually performed.
	Iterations int
	// Error is max_j |colsum_j - 1| after the last iteration.
	Error float64
	// History holds the error before each iteration (History[0] is the
	// unscaled error).
	History []float64
	// RowSums and ColSums are the raw scaled row/column sums of the final
	// vectors (the sampling denominators of Algorithms 2 and 3), exported
	// by the fused Sinkhorn–Knopp sweeps. RowSums is nil after zero
	// iterations; the sampling stage then computes row totals on the fly.
	RowSums, ColSums []float64
}

// width resolves v's pool (or the process default) and its parallel
// width: Workers, capped by the pool's width. A width of 1 runs every
// parallel region inline on the calling goroutine.
func (v Options) width() (*par.Pool, int) {
	pool := v.Pool.inner()
	if pool == nil {
		pool = par.Default()
	}
	return pool, min(pool.Workers(v.Workers), pool.Width())
}

// scaleRunHook, when set, is called at the start of every scaling run —
// the test seam that counts how many Sinkhorn–Knopp executions a workload
// actually performs. Loaded atomically because batch slots scale from
// pool workers.
var scaleRunHook atomic.Pointer[func()]

// scaling returns g's scaling under v's iteration count from the Graph's
// cell for that count, computing it on first use. A scaling is a pure
// function of (Graph, iteration count) at any width, so every caller on
// the Graph shares the one published result, read-only.
//
// Only a compute that runs inline is single-flight. At width 1 — every
// batch slot, ensemble candidate and dynamic session — the caller holds
// the cell's lock across the compute, and callers behind it wait and share
// its result. A wider compute dispatches its sweeps to a pool, whose
// steal-back wait may run a queued task on the computing goroutine; were
// that task to wait on a lock the compute held, neither would return. So
// a wider caller computes without the lock and publishes, and the first
// result published is the one kept. cancel, when non-nil, is polled
// between sweeps; a canceled compute fails with ErrCanceled and publishes
// nothing, so the Graph's next caller computes the scaling afresh.
//
// From the Graph's second computed run with at least one iteration on —
// another iteration count, or a retry after a cancel — a pattern graph's
// sweeps walk its sweep layouts, which that run builds. The layouts change
// no bit of the result.
func (g *Graph) scaling(v Options, cancel func() bool) (*Scaling, error) {
	c := g.scaleCell(v.ScalingIterations)
	if sc := c.sc.Load(); sc != nil {
		return sc, nil
	}
	if _, width := v.width(); width <= 1 {
		c.mu.Lock()
		defer c.mu.Unlock()
		if sc := c.sc.Load(); sc != nil {
			return sc, nil
		}
	}
	if hook := scaleRunHook.Load(); hook != nil {
		(*hook)()
	}
	opt := scale.Options{
		MaxIters: v.ScalingIterations,
		Workers:  v.Workers,
		Policy:   par.Dynamic,
		Pool:     v.Pool.inner(),
		Cancel:   cancel,
	}
	if v.ScalingIterations > 0 && g.a.Val == nil && g.scaleRuns.Add(1) >= 2 {
		opt.RowLayout, opt.ColLayout = g.sweepLayouts()
	}
	res, err := scale.SinkhornKnopp(g.a, g.transpose(), opt)
	if errors.Is(err, scale.ErrCanceled) {
		return nil, ErrCanceled
	}
	if err != nil {
		return nil, err
	}
	sc := &Scaling{DR: res.DR, DC: res.DC, Iterations: res.Iters, Error: res.Err,
		History: res.History, RowSums: res.RSum, ColSums: res.CSum}
	if !c.sc.CompareAndSwap(nil, sc) {
		sc = c.sc.Load()
	}
	return sc, nil
}

// MatchResult is the outcome of a matching run executed by the Spec
// engine (Matcher.Run, and Graph.Match and the batch layer over it).
type MatchResult struct {
	// Matching is the computed matching (always valid).
	Matching *Matching
	// Scaling reports the scaling stage that preceded sampling; nil for
	// algorithms that do not scale (Karp–Sipser and the cheap baselines).
	// It is the Graph's own scaling for the iteration count, shared with
	// every caller on the Graph: read it, never modify it.
	Scaling *Scaling
	// KSStats reports the Karp–Sipser phase statistics when Algorithm was
	// AlgKarpSipser (the winner's, for ensembles); nil otherwise.
	KSStats *KarpSipserStats
	// Candidates is the number of ensemble members actually consumed — 1
	// for single runs, possibly fewer than Spec.Ensemble when Spec.Target
	// or the ensemble-aware refinement stopped the sweep early.
	Candidates int
	// WinnerSeed is the seed of the candidate that produced Matching: the
	// largest heuristic candidate for unrefined ensembles, the candidate
	// the incremental refinement warm-started from for refined ones (a
	// late candidate that can no longer beat the refined size is not the
	// winner), and the resolved base seed for single runs.
	WinnerSeed uint64
	// HeuristicSize is the winning candidate's cardinality before
	// refinement; with Refine: None it equals Matching.Size, and the gap
	// Matching.Size − HeuristicSize is the work the exact solver added.
	HeuristicSize int
	// Refined reports whether a refinement stage ran (Spec.Refine was not
	// RefineNone); it is the wire-level provenance bit cmd/matchserve
	// surfaces as "refined".
	Refined bool
	// RefinedWith is the refinement engine that actually ran — it differs
	// from Spec.Refine when RefineExact auto-selected the parallel graft
	// engine on a large instance. RefineNone when no refinement ran;
	// cmd/matchserve surfaces it as "refined_with".
	RefinedWith Refinement
	// Degraded, when non-empty, records the self-protection downgrades a
	// serving layer applied to the Spec before this run (see
	// Response.Degraded for the marker grammar). Direct Matcher.Run and
	// Graph.Match calls execute exactly the Spec given and always leave it
	// empty.
	Degraded string
	// MatchedWeight is the total weight of Matching when Algorithm was
	// AlgAuction (1.0 per edge on pattern graphs, so it equals Size
	// there); 0 for the cardinality algorithms. The auction guarantees
	// MatchedWeight ≥ (1−Epsilon)·optimal.
	MatchedWeight float64
	// Epsilon is the resolved approximation slack the auction ran with
	// (Spec.Epsilon, or DefaultEpsilon when that was zero); 0 for the
	// cardinality algorithms.
	Epsilon float64
	// Rounds is the total number of auction bidding rounds (the winner's,
	// for ensembles); 0 for the cardinality algorithms.
	Rounds int
	// DualBound is the auction's LP-dual certificate Σp + Σr: an upper
	// bound on the optimal matched weight valid for the returned prices,
	// so MatchedWeight/DualBound is a certified quality ratio without an
	// exact solve (it is ≥ 1−Epsilon by the termination invariants, and
	// typically much closer to 1). 0 for the cardinality algorithms.
	DualBound float64
}

// OneSidedGuarantee returns the OneSidedMatch approximation bound implied
// by an imperfect scaling: if every column sum of the scaled matrix is at
// least alpha, the expected matching size is at least n·(1 − e^{−alpha})
// (§3.3; alpha = 1 recovers the 1 − 1/e ≈ 0.632 bound, alpha = 0.92 gives
// ≈ 0.6015). Use 1 − scalingError as a conservative alpha.
func OneSidedGuarantee(alpha float64) float64 {
	if alpha < 0 {
		alpha = 0
	}
	return 1 - math.Exp(-alpha)
}

// TwoSidedConjecture returns the conjectured TwoSidedMatch ratio
// 2(1 − ρ) ≈ 0.866 where ρ is the unique root of x·eˣ = 1 (Conjecture 1).
func TwoSidedConjecture() float64 {
	x := 0.5
	for i := 0; i < 60; i++ {
		f := x*math.Exp(x) - 1
		x -= f / (math.Exp(x) * (1 + x))
	}
	return 2 * (1 - x)
}
