package bipartite

import (
	"fmt"
	"math"

	"repro/internal/auction"
	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// This file is the weighted-matching surface of the package: weighted
// graph construction, the weight accessors with their pattern-graph
// fallback, and the Matcher's AlgAuction execution path (single runs and
// best-of-K ensembles over bidding seeds sharing one price warm-start).

// NewWeightedGraph builds a graph from raw CSR components plus a parallel
// value array: val[p] is the weight of the p-th stored edge and must have
// one entry per edge. Weights must be strictly positive and finite for
// the auction's (1−ε) guarantee; they are validated here rather than at
// match time so a bad instance fails fast. As with NewGraph, strictly
// increasing rows are kept without a copy; otherwise the graph gets its
// own sorted copy in which duplicate edges are merged, keeping the weight
// that comes last in the row (its scratch holds one float64 per edge
// more), and the inputs are left unchanged.
func NewWeightedGraph(rows, cols int, ptr []int, idx []int32, val []float64) (*Graph, error) {
	if val == nil {
		return NewGraph(rows, cols, ptr, idx)
	}
	a, err := sparse.New(rows, cols, ptr, idx, val)
	if err != nil {
		return nil, err
	}
	if !a.HasSortedRows() {
		a = a.Canonical()
	}
	if _, err := auction.Validate(a); err != nil {
		return nil, err
	}
	return newGraph(a), nil
}

// FromWeightedEdges builds a weighted graph from an edge list with one
// weight per edge; duplicate edges are merged keeping the last weight.
func FromWeightedEdges(rows, cols int, edges [][2]int, weights []float64) (*Graph, error) {
	if len(weights) != len(edges) {
		return nil, fmt.Errorf("bipartite: %d weights for %d edges", len(weights), len(edges))
	}
	coords := make([]sparse.Coord, len(edges))
	for k, e := range edges {
		if e[0] < 0 || e[0] >= rows || e[1] < 0 || e[1] >= cols {
			return nil, fmt.Errorf("bipartite: edge (%d,%d) outside %dx%d", e[0], e[1], rows, cols)
		}
		coords[k] = sparse.Coord{I: int32(e[0]), J: int32(e[1]), V: weights[k]}
	}
	a, err := sparse.FromCOO(rows, cols, coords, true)
	if err != nil {
		return nil, err
	}
	if _, err := auction.Validate(a); err != nil {
		return nil, err
	}
	return newGraph(a), nil
}

// Weighted reports whether the graph carries edge weights. Pattern
// graphs still work with AlgAuction — every edge counts 1.0, making the
// matched weight equal the cardinality.
func (g *Graph) Weighted() bool { return g.a.Val != nil }

// Weights returns the edge weights in CSR edge order (aligned with the
// idx array of CSR()), or nil for a pattern graph. The slice is the
// graph's own storage: treat it as read-only, like the CSR components.
func (g *Graph) Weights() []float64 { return g.a.Val }

// MatchedWeight sums the weights of the matched edges of mt: the
// objective AlgAuction maximizes. On a pattern graph every edge counts
// 1.0, so the result equals mt.Size.
func (g *Graph) MatchedWeight(mt *Matching) float64 {
	if g.a.Val == nil {
		return float64(mt.Size)
	}
	return auction.MatchedWeight(g.a, mt)
}

// WeightDist selects a synthetic edge-weight distribution for
// RandomWeights.
type WeightDist int

const (
	// WeightUniform draws weights uniformly from (0, 1].
	WeightUniform WeightDist = iota
	// WeightSkewed draws heavy-tailed Pareto(1, 1.5) weights: most edges
	// near 1, a few dominating the objective — the adversarial regime for
	// auction price dynamics.
	WeightSkewed
)

// ParseWeightDist converts a flag name into a WeightDist. The empty
// string means WeightUniform.
func ParseWeightDist(s string) (WeightDist, error) {
	switch s {
	case "uniform", "":
		return WeightUniform, nil
	case "skew", "skewed":
		return WeightSkewed, nil
	default:
		return 0, fmt.Errorf("bipartite: unknown weight distribution %q", s)
	}
}

// RandomWeights returns a new graph sharing this graph's pattern with
// seeded synthetic edge weights drawn from dist. Each edge's weight comes
// from its own indexed RNG stream, so the assignment is deterministic in
// (seed, edge position) regardless of how the pattern was built.
func (g *Graph) RandomWeights(dist WeightDist, seed uint64) *Graph {
	a := g.a
	val := make([]float64, len(a.Idx))
	base := xrand.Base(seed)
	var rng xrand.SplitMix64
	for p := range val {
		rng.SetIndexed(base, p)
		u := 1 - rng.Float64() // uniform in (0, 1]
		if dist == WeightSkewed {
			// Pareto(1, 1.5) by inversion; u is bounded away from 0 by the
			// 53-bit mantissa, so the draw stays finite.
			val[p] = 1 / math.Cbrt(u*u)
		} else {
			val[p] = u
		}
	}
	b := &sparse.CSR{RowsN: a.RowsN, ColsN: a.ColsN, Ptr: a.Ptr, Idx: a.Idx, Val: val}
	return newGraph(b)
}

// aucWorkspace returns the session's auction workspace, creating it on
// first use.
func (m *Matcher) aucWorkspace() *auction.Workspace {
	if m.aucWs == nil {
		m.aucWs = &auction.Workspace{}
	}
	return m.aucWs
}

// runAuction executes an AlgAuction Spec: the ε-scaling auction on the
// bound graph, as a single run or a best-of-K ensemble over bidding
// seeds. Ensembles share one deterministic warm-start — Prepare's coarse
// scaling phases and final-phase normalization run once — and each
// candidate finishes from a clone of it with its own seed; the winner is
// the heaviest matching, ties broken toward the smallest seed. Candidates
// fan out across the session pool, each at width 1; a width-1 pool runs
// them inline, one after another, polling the cancellation hook before
// each. Every candidate always runs, so the winner is bit-identical at
// any pool width.
func (m *Matcher) runAuction(spec Spec) (*MatchResult, error) {
	eps := spec.Epsilon
	if eps == 0 {
		eps = DefaultEpsilon
	}
	a, at := m.g.a, m.g.transpose()
	base := resolveSeed(spec.Seed)
	pool, width := m.opt.width()
	ws := m.aucWorkspace()
	if m.canceled() {
		return nil, ErrCanceled
	}

	popt := auction.Options{Epsilon: eps, Workers: width, Pool: pool}
	k := spec.Ensemble
	if k < 1 {
		k = 1
	}
	// A seed sub-range restricts the ensemble to candidates
	// [SeedOffset, SeedOffset+SeedCount) of the interval — the cluster
	// fan-out primitive. The warm start is a pure function of the graph
	// (Prepare is seed-free), so every replica's slice finishes from the
	// identical prices and the heaviest-weight/smallest-seed reduction
	// across slices equals the single-process sweep.
	if spec.SeedCount > 0 {
		base += uint64(spec.SeedOffset)
		k = spec.SeedCount
	}
	st, epsAbs, err := auction.Prepare(a, at, popt, ws)
	if err != nil {
		return nil, err
	}
	if k == 1 && spec.Ensemble <= 1 {
		res, err := auction.Finish(a, at, popt, base, epsAbs, st, ws)
		if err != nil {
			return nil, err
		}
		return m.auctionResult(res, base, 1, eps), nil
	}

	// Ensemble: candidates finish independently from clones of the shared
	// warm state, each serially (width 1) on its own workspace, so the
	// per-candidate results are pure functions of (warm state, seed).
	copt := auction.Options{Epsilon: eps, Workers: 1}
	results := make([]auction.Result, k)
	errs := make([]error, k)
	pool.ForCancel(k, width, par.Dynamic, 1, m.cancel, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			results[c], errs[c] = auction.Finish(a, at, copt, base+uint64(c), epsAbs, st.Clone(), &auction.Workspace{})
		}
	})
	if m.canceled() {
		return nil, ErrCanceled
	}
	best := -1
	for c := 0; c < k; c++ {
		if errs[c] != nil {
			return nil, errs[c]
		}
		if best < 0 || results[c].Weight > results[best].Weight {
			best = c
		}
	}
	return m.auctionResult(results[best], base+uint64(best), k, eps), nil
}

// auctionResult fills the session result header from one finished
// auction.
func (m *Matcher) auctionResult(res auction.Result, winner uint64, consumed int, eps float64) *MatchResult {
	m.result = MatchResult{
		Matching:      res.Matching,
		Candidates:    consumed,
		WinnerSeed:    winner,
		HeuristicSize: res.Matching.Size,
		MatchedWeight: res.Weight,
		Epsilon:       eps,
		Rounds:        res.Rounds,
		DualBound:     res.DualBound,
	}
	return &m.result
}

// OptimalMatchedWeight computes the exact maximum matched weight by a
// dense O(N³) Hungarian solve — the oracle behind the auction's quality
// gates. Practical only for small instances (N ≤ 2048); larger graphs
// return an error. For a cheap certified bound on any size, compare
// MatchedWeight against the auction's (1−ε) contract instead.
func (g *Graph) OptimalMatchedWeight() (float64, *Matching, error) {
	return auction.Oracle(g.a)
}
