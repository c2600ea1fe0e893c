package bipartite

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cheap"
	"repro/internal/exact"
	"repro/internal/ks"
	"repro/internal/par"
)

// Algorithm selects the matching heuristic a Spec runs. The zero value is
// AlgTwoSided, the paper's flagship heuristic.
type Algorithm int

const (
	// AlgTwoSided runs the TwoSidedMatch heuristic (Algorithm 3): both
	// sides sample one neighbor from the scaled matrix and the specialized
	// Karp–Sipser kernel (Algorithm 4) matches the sampled 1-out graph
	// exactly; conjectured quality ≥ 2(1−ρ) ≈ 0.866 on matrices with
	// total support.
	AlgTwoSided Algorithm = iota
	// AlgOneSided runs the OneSidedMatch heuristic (Algorithm 2):
	// Sinkhorn–Knopp scaling, then one scaling-weighted column choice per
	// row, each column keeping the largest row that chose it; guaranteed
	// expected quality ≥ 1−1/e ≈ 0.632 on matrices with total support.
	AlgOneSided
	// AlgKarpSipser runs the classic sequential Karp–Sipser baseline (the
	// Table 1 baseline); MatchResult.KSStats reports its phase statistics.
	AlgKarpSipser
	// AlgKarpSipserParallel runs the Azad-et-al-style multithreaded
	// Karp–Sipser baseline on the full graph (the paper's reference [4]):
	// lock-free but without a quality guarantee, since newly arising
	// degree-one vertices are not tracked.
	AlgKarpSipserParallel
	// AlgCheapEdge runs the §2.1 random-edge-visit 1/2-approximation.
	AlgCheapEdge
	// AlgCheapVertex runs the §2.1 random-vertex-random-neighbor
	// 1/2-approximation.
	AlgCheapVertex
	// AlgAuction runs the ε-scaling auction for maximum-weight matching:
	// the one objective-aware algorithm, guaranteeing matched weight ≥
	// (1−ε)·optimal with ε from Spec.Epsilon. On pattern (unweighted)
	// graphs every edge counts 1.0, so the guarantee degrades gracefully
	// to a (1−ε)-approximate maximum-cardinality matching. See the
	// "Weighted matching" section of the package documentation.
	AlgAuction

	algCount // sentinel; keep last
)

// String returns the wire name of the algorithm, as accepted by
// ParseAlgorithm and cmd/matchserve.
func (a Algorithm) String() string {
	switch a {
	case AlgTwoSided:
		return "twosided"
	case AlgOneSided:
		return "onesided"
	case AlgKarpSipser:
		return "karpsipser"
	case AlgKarpSipserParallel:
		return "karpsipser-parallel"
	case AlgCheapEdge:
		return "cheap-edge"
	case AlgCheapVertex:
		return "cheap-vertex"
	case AlgAuction:
		return "auction"
	default:
		return "unknown"
	}
}

// ParseAlgorithm converts a wire name back into an Algorithm. The empty
// string means AlgTwoSided, the default.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "twosided", "":
		return AlgTwoSided, nil
	case "onesided":
		return AlgOneSided, nil
	case "karpsipser":
		return AlgKarpSipser, nil
	case "karpsipser-parallel", "ksp":
		return AlgKarpSipserParallel, nil
	case "cheap-edge":
		return AlgCheapEdge, nil
	case "cheap-vertex":
		return AlgCheapVertex, nil
	case "auction":
		return AlgAuction, nil
	default:
		return 0, fmt.Errorf("bipartite: unknown algorithm %q", s)
	}
}

// scales reports whether the algorithm runs the matrix-scaling stage
// before sampling (and therefore benefits from a Matcher's cached — or a
// batch engine's shared — scaling).
func (a Algorithm) scales() bool { return a == AlgTwoSided || a == AlgOneSided }

// Refinement selects the post-processing applied to the heuristic
// matching a Spec produced. The zero value is RefineNone.
type Refinement int

const (
	// RefineNone returns the heuristic matching as is.
	RefineNone Refinement = iota
	// RefineExact augments the heuristic matching to maximum cardinality
	// with Hopcroft–Karp — the paper's central application (§4, Table 3):
	// the heuristic is a jump-start, the exact solver only pays for the
	// vertices the heuristic left free. Like every engine, it searches
	// from the side with fewer non-isolated vertices (see the package
	// documentation). A refined single run always satisfies size ==
	// Sprank(); inside an ensemble, refinement proceeds incrementally
	// between candidates and a Spec.Target may stop it early (size ≥
	// ⌈Target·SprankUpperBound()⌉), otherwise it too finishes at size ==
	// Sprank().
	RefineExact
	// RefinePushRelabel augments with the push-relabel / auction scheme
	// instead (the algorithm family of the GPU and multicore
	// maximum-transversal codes the paper cites) — the second augmentation
	// family under the same Spec, with exactly RefineExact's contract and
	// search side. The two produce matchings of identical (maximum) size
	// but generally different mates. It is super-quadratic only when
	// both sides hold non-isolated vertices that no maximum matching
	// covers.
	RefinePushRelabel
	// RefineGraft augments with the parallel multi-source BFS +
	// tree-grafting engine (the MS-BFS-Graft family of Azad et al.): all
	// exposed vertices of the search side grow alternating forests
	// together across the session's pool, and a deterministic
	// reconciliation commits the discovered augmenting paths in fixed
	// root order — so the refined matching is bit-identical at every pool
	// width, including the sequential width 1. Same size-== -sprank
	// contract and search side as RefineExact; it is the engine
	// RefineExact auto-selects on large instances, and the one to request
	// explicitly when refinement dominates end-to-end time.
	RefineGraft

	refineCount // sentinel; keep last
)

// graftAutoEdges is the edge count at which RefineExact auto-selects the
// parallel graft engine: below it the sequential Hopcroft–Karp tail is
// cheaper than any fan-out, above it refinement dominates end-to-end time
// and the graft engine's pool-wide search wins. A variable so the
// threshold tests don't need multi-million-edge instances.
var graftAutoEdges = 2 << 20

// String returns the wire name of the refinement.
func (r Refinement) String() string {
	switch r {
	case RefineNone:
		return "none"
	case RefineExact:
		return "exact"
	case RefinePushRelabel:
		return "pushrelabel"
	case RefineGraft:
		return "graft"
	default:
		return "unknown"
	}
}

// ParseRefinement converts a wire name back into a Refinement. The empty
// string means RefineNone.
func ParseRefinement(s string) (Refinement, error) {
	switch s {
	case "none", "":
		return RefineNone, nil
	case "exact":
		return RefineExact, nil
	case "pushrelabel", "push-relabel":
		return RefinePushRelabel, nil
	case "graft", "msbfs-graft":
		return RefineGraft, nil
	default:
		return 0, fmt.Errorf("bipartite: unknown refinement %q", s)
	}
}

// Spec is a declarative matching request — the one request type every
// execution surface understands: Matcher.Run executes it on a session,
// Graph.Match one-shot, Server runs it per Request, and cmd/matchserve
// accepts its fields on the wire. The zero value is a
// single TwoSided run at seed 1.
type Spec struct {
	// Algorithm selects the heuristic. Zero value: AlgTwoSided.
	Algorithm Algorithm

	// Seed is the base RNG seed, a run's only seed: 0 means 1. Ensemble
	// candidate c runs with seed Seed+c.
	Seed uint64

	// Ensemble, when > 1, runs a best-of-K ensemble: K candidates with
	// seeds Seed..Seed+K-1 share one scaling and the largest matching
	// wins, ties broken toward the smallest seed. On a session whose pool
	// is wider than one worker the candidates fan out across the pool,
	// each at width 1 on its own arena; otherwise they run one after
	// another on the session's arena. Either way they are consumed in
	// seed order, so the winner and its full matching are the same at
	// every width. 0 or 1 means a single run.
	Ensemble int

	// Refine post-processes the winning heuristic matching; see
	// RefineExact and RefinePushRelabel. Inside an ensemble the
	// refinement is ensemble-aware: it advances incrementally as
	// candidates arrive (warm-started from the best candidate so far) and
	// the ensemble stops early once the refined size reaches the Target
	// or structural sprank bound.
	Refine Refinement

	// Target, when > 0, stops the ensemble early: the sweep halts as soon
	// as the best size so far — the refined size when Refine is set, the
	// heuristic best otherwise — reaches ⌈Target · SprankUpperBound()⌉.
	// With Refine set it also bounds the final refinement pass, so the
	// returned matching may stop short of maximum once the target is met.
	// Must lie in (0, 1]. Ignored for single runs.
	Target float64

	// SeedOffset and SeedCount, when SeedCount > 0, restrict an ensemble
	// to the sub-range of its seed interval [Seed+SeedOffset,
	// Seed+SeedOffset+SeedCount): the run consumes exactly those
	// candidates and reports the sub-range's strict-improvement winner
	// with its absolute seed. This is the cluster fan-out primitive — a
	// best-of-K Spec split into disjoint sub-ranges across replicas
	// reduces (largest size — or, for AlgAuction, heaviest weight — wins,
	// ties toward the smallest winner seed) to exactly the single-process
	// sweep's winner, mates and provenance, because each candidate is a
	// pure function of (Graph, Algorithm, seed) and the full-range winner
	// rule is associative over sub-range winners. A sub-range requires
	// Ensemble > 1, SeedOffset+SeedCount <= Ensemble and — except under
	// AlgAuction, whose ensembles never stop early — Refine: RefineNone
	// and Target: 0: the early-stopping sweeps consume seeds serially, so
	// no split could reproduce them. Both zero (the zero value) means the
	// full range.
	SeedOffset int
	SeedCount  int

	// Epsilon is the relative approximation slack of AlgAuction: the
	// matched weight is guaranteed ≥ (1−ε)·optimal. Must lie in (0, 1);
	// 0 means the default (DefaultEpsilon). Only valid with AlgAuction.
	Epsilon float64
}

// resolveSeed resolves a run's base seed: 0 means 1. Every seeded entry
// point — Matcher.Run, the auction, a dynamic session's initial auction and
// repairs, and UndirectedGraph.Match — resolves its seed here.
func resolveSeed(seed uint64) uint64 { return max(seed, 1) }

// DefaultEpsilon is the auction slack used when Spec.Epsilon is zero:
// matched weight within 5% of optimal, a practical sweet spot between
// bidding rounds and quality.
const DefaultEpsilon = 0.05

// errSpec tags Spec validation failures; matchserve maps them to 400s.
var errSpec = errors.New("bipartite: invalid spec")

// Validate checks the Spec's fields; the engine rejects invalid specs
// before touching any kernel, and cmd/matchserve turns the errors into
// precise HTTP 400s.
func (s Spec) Validate() error {
	if s.Algorithm < 0 || s.Algorithm >= algCount {
		return fmt.Errorf("%w: unknown algorithm %d", errSpec, int(s.Algorithm))
	}
	if s.Refine < 0 || s.Refine >= refineCount {
		return fmt.Errorf("%w: unknown refinement %d", errSpec, int(s.Refine))
	}
	if s.Ensemble < 0 {
		return fmt.Errorf("%w: negative ensemble size %d", errSpec, s.Ensemble)
	}
	if s.Target != 0 && !(s.Target > 0 && s.Target <= 1) {
		return fmt.Errorf("%w: target %v outside (0, 1]", errSpec, s.Target)
	}
	if s.Epsilon != 0 {
		if s.Algorithm != AlgAuction {
			return fmt.Errorf("%w: epsilon requires algorithm auction", errSpec)
		}
		if !(s.Epsilon > 0 && s.Epsilon < 1) {
			return fmt.Errorf("%w: epsilon %v outside (0, 1)", errSpec, s.Epsilon)
		}
	}
	if s.Algorithm == AlgAuction {
		if s.Refine != RefineNone {
			return fmt.Errorf("%w: auction does not support refinement (its objective is weight, the refiners' is cardinality)", errSpec)
		}
		if s.Target != 0 {
			return fmt.Errorf("%w: auction does not support a cardinality target", errSpec)
		}
	}
	if s.SeedOffset != 0 || s.SeedCount != 0 {
		if s.SeedOffset < 0 {
			return fmt.Errorf("%w: negative seed offset %d", errSpec, s.SeedOffset)
		}
		if s.SeedCount <= 0 {
			return fmt.Errorf("%w: seed sub-range needs a positive seed count, got %d", errSpec, s.SeedCount)
		}
		if s.Ensemble <= 1 {
			return fmt.Errorf("%w: seed sub-range requires an ensemble (best_of > 1)", errSpec)
		}
		if s.SeedOffset+s.SeedCount > s.Ensemble {
			return fmt.Errorf("%w: seed sub-range [%d, %d) exceeds the ensemble's %d seeds",
				errSpec, s.SeedOffset, s.SeedOffset+s.SeedCount, s.Ensemble)
		}
		if s.Refine != RefineNone || s.Target != 0 {
			return fmt.Errorf("%w: seed sub-range requires refine none and no target (early-stopping sweeps consume seeds serially, so a split cannot reproduce them)", errSpec)
		}
	}
	return nil
}

// Run executes one declarative matching request on the session — the
// single engine behind every other entry point: Graph.Match, the batch
// layer, Server and cmd/matchserve all delegate here, so Run is the only
// code path that dispatches matching kernels.
//
// A single run (Ensemble <= 1) calls the Algorithm's kernel once with the
// resolved seed, reusing the cached scaling and workspaces, so it is
// bit-identical to Graph.Match at the same seed, at any width (for
// AlgKarpSipserParallel, at Workers: 1).
//
// Ensembles consume their K candidates strictly in seed order over one
// shared scaling. On a session whose pool is wider than one worker the
// candidates fan out across the pool — one width-1 run per candidate on
// per-worker shape-keyed arenas — and the consumption order makes the
// winner (size-then-seed) and its full matching bit-identical to the
// serial sweep a Workers: 1 session runs on its own arena. MatchResult
// reports the winner's provenance (WinnerSeed, Candidates, HeuristicSize)
// and, for AlgKarpSipser, the winner's phase statistics.
//
// Refinement completes the winner toward maximum cardinality with
// Hopcroft–Karp (RefineExact), push-relabel (RefinePushRelabel) or the
// parallel MS-BFS-Graft engine (RefineGraft; RefineExact auto-selects it
// on instances with at least graftAutoEdges nonzeros, and
// MatchResult.RefinedWith reports the engine that actually ran), each
// searching from the Graph's side with fewer non-isolated vertices. For
// single runs the refined matching always satisfies size == Sprank().
// Inside an ensemble the refinement is ensemble-aware: it advances one
// bounded unit per consumed candidate, warm-starting from the best
// heuristic so far, and the ensemble stops the moment the refined size
// reaches the Target or structural sprank bound — jump-start workloads
// stop paying for candidates they no longer need. Refined matchings live
// on the session's refinement workspace — like unrefined results they
// alias the session and are overwritten by its next Run (the batch layer
// hands callers owned copies).
//
// Cancellation (the batch layer's per-request deadlines) is honored
// between and inside candidate runs at the kernels' usual checkpoints,
// between refinement units (Hopcroft–Karp and graft phases, push-relabel
// steps) and inside graft phases between frontier chunks: a canceled Run
// returns ErrCanceled at most one unit after the hook fires.
func (m *Matcher) Run(spec Spec) (*MatchResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Algorithm == AlgAuction {
		return m.runAuction(spec)
	}
	var sc *Scaling
	if spec.Algorithm.scales() {
		var err error
		if sc, err = m.Scale(); err != nil {
			return nil, err
		}
	}
	base := resolveSeed(spec.Seed)
	if spec.Ensemble <= 1 {
		return m.runSingle(spec, base, sc)
	}
	return m.runEnsemble(spec, base, sc)
}

// runSingle executes a non-ensemble Spec: one candidate, optionally
// refined to maximum cardinality.
func (m *Matcher) runSingle(spec Spec, seed uint64, sc *Scaling) (*MatchResult, error) {
	best, err := m.runOnce(spec.Algorithm, seed)
	if err != nil {
		return nil, err
	}
	heuristic := best.Size
	ref := m.resolveRefine(spec.Refine)
	if ref != RefineNone {
		if best, err = m.refine(ref, best); err != nil {
			return nil, err
		}
	}
	m.result = MatchResult{
		Matching:      best,
		Scaling:       sc,
		Candidates:    1,
		WinnerSeed:    seed,
		HeuristicSize: heuristic,
		Refined:       ref != RefineNone,
		RefinedWith:   ref,
	}
	if spec.Algorithm == AlgKarpSipser {
		m.result.KSStats = &m.ksStats
	}
	return &m.result, nil
}

// refine completes init to a maximum matching with the (resolved) engine
// ref, on the session's refinement workspace: runSingle's refinement and
// Graph.MaximumMatching both run this loop. A graft engine fans out across
// the session's pool and polls the cancellation hook inside its phases.
func (m *Matcher) refine(ref Refinement, init *Matching) (*Matching, error) {
	r := m.newSpecRefiner(ref, init)
	if r.graft != nil {
		r.graft.SetParallel(m.opt.width())
		r.graft.SetCancel(m.cancel)
	}
	// Advance returns false only once the matching is maximum, so a poll
	// between advances — Hopcroft–Karp and graft phases, push-relabel
	// steps — bounds the overrun past a deadline by one unit.
	for r.Advance() {
		if m.canceled() {
			return nil, ErrCanceled
		}
	}
	return r.Result(), nil
}

// runEnsemble executes a best-of-K Spec: the candidates run one after
// another on the session arena when the fan-out width is 1, and fan out
// across the pool otherwise; either way their results are consumed
// strictly in seed order by one ensembleRun state machine — which is what
// makes the two schedules agree bit for bit.
// A seed sub-range (SeedCount > 0) consumes only the candidates
// [SeedOffset, SeedOffset+SeedCount) of the interval; the winner seed it
// reports stays absolute, so a cluster router can reduce disjoint
// sub-range winners with the full sweep's own size-then-smallest-seed
// rule. Validation has already rejected sub-ranges combined with the
// early-stopping Refine/Target machinery.
func (m *Matcher) runEnsemble(spec Spec, base uint64, sc *Scaling) (*MatchResult, error) {
	k := spec.Ensemble
	if spec.SeedCount > 0 {
		base += uint64(spec.SeedOffset)
		k = spec.SeedCount
	}
	e := ensembleRun{m: m, spec: spec, base: base, k: k, ref: m.resolveRefine(spec.Refine)}
	if spec.Refine != RefineNone || spec.Target > 0 {
		e.ub = m.g.SprankUpperBound()
		if spec.Target > 0 {
			bound := int(math.Ceil(spec.Target * float64(e.ub)))
			if spec.Refine == RefineNone {
				e.targetH = bound
			} else {
				e.targetR = bound
			}
		}
	}
	pool, width := m.ensembleWidth(e.k)
	if width <= 1 {
		e.runSequential()
	} else {
		e.runParallel(pool, width, sc)
	}
	if e.err != nil {
		return nil, e.err
	}

	final := &m.best
	if e.ref != RefineNone {
		if !e.hitTarget {
			// The completion loop runs outside any pool region, so a graft
			// refiner — kept at width 1 while candidates held the pool — can
			// fan its remaining phases out across the session pool now.
			// Bit-identity at every width is the engine's contract, so this
			// re-widening cannot change the result.
			if e.refiner.graft != nil {
				e.refiner.graft.SetParallel(m.opt.width())
			}
			// Complete the refinement — up to the target when one is set,
			// to the maximum otherwise (the RefineExact guarantee). A size
			// already at the structural bound is provably maximum, so the
			// loop never pays a fruitless final sweep for it.
			for e.refiner.Size() < e.ub && (e.targetR == 0 || e.refiner.Size() < e.targetR) && e.refiner.Advance() {
				if m.canceled() {
					return nil, ErrCanceled
				}
			}
		}
		final = e.refiner.Result()
	}
	if spec.Algorithm == AlgKarpSipser {
		m.ksStats = m.bestKS // report the winner's phase stats, not the last candidate's
	}
	m.result = MatchResult{
		Matching:      final,
		Scaling:       sc,
		Candidates:    e.consumed,
		WinnerSeed:    e.winner,
		HeuristicSize: e.heuristic,
		Refined:       e.ref != RefineNone,
		RefinedWith:   e.ref,
	}
	if spec.Algorithm == AlgKarpSipser {
		m.result.KSStats = &m.ksStats
	}
	return &m.result, nil
}

// ensembleWidth resolves the pool and fan-out width of an ensemble run:
// the session's width, capped by the candidate count. Width 1 means
// the candidates run one after another on the session arena.
func (m *Matcher) ensembleWidth(k int) (*par.Pool, int) {
	pool, width := m.opt.width()
	if width > k {
		width = k
	}
	return pool, width
}

// candResult is one ensemble candidate's outcome, as handed to the
// consumption state machine: the matching (aliasing the producing arena on
// the sequential path, an owned copy on the parallel path), the
// Karp–Sipser phase statistics when that kernel ran, and the kernel error.
type candResult struct {
	mt   *Matching
	st   KarpSipserStats
	err  error
	done bool
}

// ensembleRun is the consumption state of one best-of-K ensemble. Both
// execution schedules feed it the same way — candidate results enter
// consume strictly in seed order — so every decision it takes (strict
// improvement, refinement advances, early stops) is a deterministic
// function of the candidate results alone, never of completion order or
// pool width. On the parallel path the state is guarded by mu, and stop
// doubles as the lock-free cancellation hook that keeps unneeded
// candidates from starting.
type ensembleRun struct {
	m    *Matcher
	spec Spec
	base uint64
	k    int
	ref  Refinement // spec.Refine after auto-selection (resolveRefine)

	ub      int // structural sprank upper bound (refine or target runs)
	targetH int // heuristic early-stop bound (Refine: None)
	targetR int // refined early-stop bound (Refine set)

	mu        sync.Mutex
	stop      atomic.Bool
	frontier  int
	consumed  int
	err       error
	bestSet   bool
	bestSize  int
	winner    uint64
	heuristic int
	hitTarget bool
	refiner   *specRefiner
	refDone   bool
}

// consume folds the next candidate (in seed order) into the ensemble
// state: strict-improvement winner tracking, one incremental refinement
// advance, and the early-stop decisions.
//
// The reported winner is the candidate the returned matching derives
// from. Without refinement that is the strict-improvement best (ties keep
// the earliest seed, which makes the winner deterministic — sizes are
// deterministic at any width, so the comparison sequence is too). With
// refinement it is the refiner's current warm start: a later candidate
// that improves the heuristic best but can no longer beat the refined
// size contributes nothing to the final matching, so it must not claim
// WinnerSeed/HeuristicSize — the wire contract is that
// size − heuristic_size is exactly the work the refinement added.
func (e *ensembleRun) consume(res candResult) {
	c := e.frontier
	e.frontier++
	if res.err != nil {
		e.err = res.err
		e.stop.Store(true)
		return
	}
	e.consumed++
	m := e.m
	improved := !e.bestSet || res.mt.Size > e.bestSize
	if improved {
		e.bestSet = true
		e.bestSize = res.mt.Size
	}
	if e.ref == RefineNone {
		if improved {
			m.copyBest(res.mt)
			e.winner = e.base + uint64(c)
			e.heuristic = res.mt.Size
			if e.spec.Algorithm == AlgKarpSipser {
				m.bestKS = res.st
			}
		}
		if e.targetH > 0 && e.bestSize >= e.targetH {
			e.hitTarget = true
			e.stop.Store(true)
		}
		return
	}
	// Ensemble-aware refinement: keep one incremental refiner warm-started
	// from the best heuristic so far (restarted when a candidate strictly
	// beats the refined size, at which point that candidate becomes the
	// provenance anchor), advance it one bounded unit per candidate, and
	// stop the ensemble the moment the refined size proves the target or
	// the structural bound — or the refiner reports the matching maximum,
	// after which further candidates cannot improve the final size.
	if e.refiner == nil || (improved && e.bestSize > e.refiner.Size()) {
		e.refiner = m.newSpecRefiner(e.ref, res.mt)
		e.refDone = false
		e.winner = e.base + uint64(c)
		e.heuristic = res.mt.Size
		if e.spec.Algorithm == AlgKarpSipser {
			m.bestKS = res.st
		}
	}
	if !e.refDone && !e.refiner.Advance() {
		e.refDone = true
	}
	size := e.refiner.Size()
	switch {
	case e.targetR > 0 && size >= e.targetR:
		e.hitTarget = true
		e.stop.Store(true)
	case e.refDone || size >= e.ub:
		e.stop.Store(true)
	}
}

// runSequential drives the candidates one after another on the session's
// own arena: the schedule of a width-1 session (every batch slot) and of a
// one-candidate seed sub-range.
func (e *ensembleRun) runSequential() {
	m := e.m
	for c := 0; c < e.k && !e.stop.Load(); c++ {
		mt, err := m.runOnce(e.spec.Algorithm, e.base+uint64(c))
		e.consume(candResult{mt: mt, st: m.ksStats, err: err})
	}
}

// runParallel fans the candidates out across the pool: each worker slot
// owns a shape-keyed width-1 arena (the batch engine's recycling), claims
// candidates off a dynamic schedule, and hands owned copies of the results
// to the seed-ordered consumption loop. Candidates past a stop decision
// never start (the claim loop polls stop); candidates already in flight
// when the ensemble stops finish and are discarded unread, which is what
// keeps the outcome independent of completion order.
func (e *ensembleRun) runParallel(pool *par.Pool, width int, sc *Scaling) {
	m := e.m
	m.growEnsembleSlots(width)
	opt := m.opt
	opt.Workers = 1
	opt.Pool = nil // width-1 arenas run inline; no pool needed
	results := make([]candResult, e.k)
	pool.ForCancel(e.k, width, par.Dynamic, 1, e.stop.Load, func(w, lo, hi int) {
		for c := lo; c < hi; c++ {
			child := m.ensSlots[w].get(m.g, opt)
			child.setCancel(m.cancel)
			var mt *Matching
			var err error
			if sc != nil {
				// The Graph holds sc already: the child's Scale is a hit.
				_, err = child.Scale()
			}
			if err == nil {
				mt, err = child.runOnce(e.spec.Algorithm, e.base+uint64(c))
			}
			res := candResult{err: err, done: true}
			if err == nil {
				// Own the result: the arena's buffers are overwritten by
				// the worker's next candidate, and consumption may happen
				// on another worker's goroutine.
				res.mt = cloneMatching(mt)
				res.st = child.ksStats
			}
			e.mu.Lock()
			results[c] = res
			for e.frontier < e.k && !e.stop.Load() && results[e.frontier].done {
				e.consume(results[e.frontier])
			}
			e.mu.Unlock()
		}
	})
}

// specRefiner is the incremental engine behind every refinement: Advance
// performs one bounded unit of augmentation work (a Hopcroft–Karp or graft
// phase, a push-relabel bid budget) and reports whether the matching may
// still be improvable; Result exposes the refined matching in row
// orientation, which is valid between advances and whose size is
// monotone. One engine is set.
//
// On a Graph whose refinements search from the columns
// (Graph.searchColumns) the engine runs on the transpose, from the
// mirrored warm start, and Result mirrors its matching back through view,
// so neither direction copies or allocates.
type specRefiner struct {
	hk     *exact.HKRefiner
	pr     *exact.PRRefiner
	graft  *exact.GraftRefiner
	budget int       // push-relabel bids per advance
	mt     *Matching // the engine's matching, in the engine's orientation
	cols   bool      // the engine runs on the transpose
	view   Matching  // the mirrored warm start, then the mirrored result
}

func (r *specRefiner) Advance() bool {
	switch {
	case r.pr != nil:
		return r.pr.Step(r.budget)
	case r.graft != nil:
		return r.graft.Phase()
	default:
		return r.hk.Phase()
	}
}

func (r *specRefiner) Size() int { return r.mt.Size }

func (r *specRefiner) Result() *Matching {
	if !r.cols {
		return r.mt
	}
	return exact.Mirror(&r.view, r.mt)
}

// resolveRefine maps the requested refinement to the engine that runs:
// RefineExact auto-selects the parallel graft engine once the instance is
// large enough (graftAutoEdges nonzeros) that refinement dominates
// end-to-end time. Both engines share the size == sprank contract, so the
// substitution only changes which maximum matching comes back — and
// MatchResult.RefinedWith records which engine it was.
func (m *Matcher) resolveRefine(ref Refinement) Refinement {
	if ref == RefineExact && len(m.g.a.Idx) >= graftAutoEdges {
		return RefineGraft
	}
	return ref
}

// newSpecRefiner builds the incremental refiner of the given (resolved)
// family on the session's refinement workspace, warm-started from a copy of
// init, searching from the side the Graph picks. On the column side the
// engine runs on the Graph's cached transpose and graft gets A as its
// transpose. The push-relabel advance budget is one bid per search-side
// vertex — roughly one sweep of work per unit, the granularity a
// Hopcroft–Karp phase has naturally. A graft refiner built here starts at
// width 1: consume runs inside the parallel schedule's pool region, where
// nested pool dispatch would deadlock; refine, and runEnsemble for its
// completion loop, widen it to the session's width, which the engine's
// any-width bit-identity makes safe.
func (m *Matcher) newSpecRefiner(ref Refinement, init *Matching) *specRefiner {
	a, at, ws := m.g.a, m.g.transpose(), m.refineWs()
	r := &m.ref
	*r = specRefiner{cols: m.g.searchColumns()}
	if r.cols {
		a, at, init = at, a, exact.Mirror(&r.view, init)
	}
	switch ref {
	case RefinePushRelabel:
		r.budget = max(a.RowsN, 1)
		r.pr = exact.NewPRRefinerWs(a, init, ws)
		r.mt = r.pr.Matching()
	case RefineGraft:
		r.graft = exact.NewGraftRefinerWs(a, init, ws)
		r.graft.SetTranspose(at)
		r.mt = r.graft.Matching()
	default:
		// The search side's non-isolated columns: the Graph's rows when
		// the engine runs on the transpose.
		rows, cols := m.g.liveCounts()
		if r.cols {
			cols = rows
		}
		r.hk = exact.NewHKRefinerLive(a, init, ws, cols)
		r.mt = r.hk.Matching()
	}
	return r
}

// runOnce dispatches a single candidate run of the given algorithm. The
// returned matching aliases the session workspaces (except the cheap
// baselines, which allocate). A nil kernel result means the cancellation
// hook fired.
func (m *Matcher) runOnce(alg Algorithm, seed uint64) (*Matching, error) {
	switch alg {
	case AlgOneSided:
		mt := m.session().OneSided(seed)
		if mt == nil {
			return nil, ErrCanceled
		}
		return mt, nil
	case AlgKarpSipser:
		if m.ksWs == nil {
			m.ksWs = &ks.Workspace{}
		}
		mt, st := ks.RunWsCancel(m.g.a, m.g.transpose(), seed, m.ksWs, m.cancel)
		m.ksStats = st
		if mt == nil {
			return nil, ErrCanceled
		}
		return mt, nil
	case AlgKarpSipserParallel:
		if m.ksApprox == nil {
			m.ksApprox = ks.NewApproxSession(m.g.a, m.g.transpose(), m.opt.Workers, m.opt.Pool.inner())
		}
		return m.ksApprox.Run(seed), nil
	case AlgCheapEdge:
		return cheap.RandomEdge(m.g.a, seed), nil
	case AlgCheapVertex:
		return cheap.RandomVertex(m.g.a, seed), nil
	default: // AlgTwoSided
		res := m.session().TwoSided(seed)
		if res == nil {
			return nil, ErrCanceled
		}
		return res.Matching, nil
	}
}

// copyBest retains mt as the ensemble's best candidate so far in the
// session-owned winner buffer (the next candidate overwrites the kernel
// workspaces mt points into).
func (m *Matcher) copyBest(mt *Matching) {
	m.best.RowMate = append(m.best.RowMate[:0], mt.RowMate...)
	m.best.ColMate = append(m.best.ColMate[:0], mt.ColMate...)
	m.best.Size = mt.Size
}

// Match executes one declarative matching request on a throwaway session —
// the one-shot form of Matcher.Run. Callers that run several Specs on the
// same graph create a Matcher and call Run directly, which reuses the
// scaling and the workspaces across calls.
func (g *Graph) Match(spec Spec, opt *Options) (*MatchResult, error) {
	return g.NewMatcher(opt).Run(spec)
}
