package bipartite

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/auction"
	"repro/internal/dyngraph"
	"repro/internal/sparse"
)

// ErrInvalidMutation reports a mutation batch that names an out-of-range
// vertex; the batch is rejected whole — no prefix of it is applied —
// and cmd/matchserve maps the error to HTTP 400.
var ErrInvalidMutation = errors.New("bipartite: invalid mutation")

// DynSession is a mutable graph session that maintains its matching
// incrementally under batched edge mutations — the online form of a
// Matcher. Where a Matcher binds an immutable Graph and answers
// repeated matching requests, a DynSession absorbs Apply(inserts,
// deletes) batches and repairs the matching it holds instead of
// recomputing it:
//
//   - A deleted matched edge un-matches its pair and the repair
//     re-augments from the freed endpoints.
//   - An inserted edge triggers augmentation only when it touches an
//     exposed vertex — an insertion between two matched vertices cannot
//     grow the matching (exact sessions still verify maximality).
//   - Exact sessions (Spec.Refine set) complete the repair with
//     warm-started Hopcroft–Karp phases over the mutable adjacency, so
//     the maintained size equals the mutated graph's sprank after every
//     batch. Heuristic sessions (Refine: None) stop at the targeted
//     repair and keep the heuristic's quality profile.
//
// Only the initial run scales: repairs augment over the mutable
// adjacency and never sample, and a mutated Snapshot is a new Graph that
// scales itself on its first match.
//
// Determinism contract: a DynSession executes every internal kernel at
// parallel width 1 — repair is inherently small sequential work per
// batch — so the maintained matching is a pure function of (initial
// graph, Spec, mutation trace), bit-identical whatever pool or worker
// count the Options carry. The differential fuzz suite gates this at
// pool widths 1/2/4.
//
// A DynSession is not safe for concurrent use; the serving layer
// serializes PATCH batches per graph. Results returned by Matching
// alias the session and are valid until the next Apply.
type DynSession struct {
	spec Spec

	exact bool // Spec.Refine != RefineNone: maintain size == sprank

	dg  *dyngraph.Graph
	rep *dyngraph.Repairer
	mt  *Matching

	// snap is the cached immutable snapshot of the current adjacency;
	// nil when stale. Matching-neutral batches (nothing applied) keep
	// the previous snapshot pointer, and with it the snapshot's scaling
	// and other per-Graph caches.
	snap *Graph

	// Scratch for batch repair (reused across Apply calls).
	seedRows, seedCols []int32

	// Auction-session state (Spec.Algorithm == AlgAuction): the repair
	// re-auctions freed endpoints against the maintained price vector at
	// the session's creation-time absolute slack, so the weight guarantee
	// weight ≥ opt − |M|·aucEpsAbs tracks the mutated graph.
	auction   bool
	weighted  bool               // emit weighted snapshots (creation graph or ApplyWeighted)
	wmap      map[int64]float64  // edge weights keyed int64(i)<<32 | j
	aucSt     *auction.State     // maintained prices + matching (mt aliases it)
	aucWs     *auction.Workspace // reusable repair scratch
	aucOpt    auction.Options
	aucEpsAbs float64 // creation-time absolute slack
	aucWeight float64 // maintained matched weight after the last repair

	stats DynStats
}

// DynStats accumulates a session's lifetime counters.
type DynStats struct {
	// Batches is the number of Apply calls, including no-op batches.
	Batches int
	// Inserted and Deleted count mutations actually applied (duplicate
	// inserts and absent deletes are skipped, not counted).
	Inserted, Deleted int
	// Freed counts matched pairs broken by deletions.
	Freed int
	// Augments counts augmenting paths applied during repair.
	Augments int
}

// DynResult is the outcome of one Apply batch — the repair provenance
// cmd/matchserve puts on the wire.
type DynResult struct {
	// Inserted and Deleted are the mutations actually applied: inserts
	// of present edges and deletes of absent edges are no-ops.
	Inserted, Deleted int
	// Freed is the number of matched pairs the deletions broke.
	Freed int
	// Augments is the number of augmenting paths the repair applied.
	Augments int
	// MaintainedSize is the matching cardinality after repair. For exact
	// sessions it equals the mutated graph's sprank.
	MaintainedSize int
	// MaintainedWeight is the matched weight after repair, for auction
	// sessions (1.0 per edge when the session's graph is unweighted);
	// 0 for cardinality sessions.
	MaintainedWeight float64
}

// NewDynSession opens a dynamic session on g: the Spec is run once (at
// parallel width 1) to establish the initial matching — refined Specs
// start from a maximum matching and stay exact under mutation — and the
// graph is copied into the session's mutable adjacency. The run takes g's
// own scaling, so a graph a Server or any other caller already scaled at
// the same iteration count is not scaled again. opt follows the usual
// defaulting rules; pool and worker settings are ignored (see the
// determinism contract). g itself is the session's initial Snapshot and
// is never mutated.
func (g *Graph) NewDynSession(spec Spec, opt *Options) (*DynSession, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Algorithm == AlgAuction {
		return g.newDynAuction(spec)
	}
	v := opt.normalized()
	v.Workers = 1
	v.Pool = nil
	res, err := g.Match(spec, &v)
	if err != nil {
		return nil, err
	}
	s := &DynSession{
		spec:  spec,
		exact: spec.Refine != RefineNone,
		dg:    dyngraph.FromCSR(g.a),
		mt:    cloneMatching(res.Matching),
		snap:  g,
	}
	s.rep = dyngraph.NewRepairer(s.dg)
	return s, nil
}

// newDynAuction opens an auction (weighted) dynamic session: the initial
// auction runs here directly — rather than through Graph.Match — so the
// session retains the price vector the repairs warm-start from. The
// absolute slack ε_abs is fixed from the creation graph; the maintained
// weight guarantee weight ≥ opt − |M|·ε_abs is relative to that slack
// (mutations that raise Wmax dilute the relative (1−ε) reading, never
// the absolute one).
func (g *Graph) newDynAuction(spec Spec) (*DynSession, error) {
	eps := spec.Epsilon
	if eps == 0 {
		eps = DefaultEpsilon
	}
	aopt := auction.Options{Epsilon: eps, Workers: 1}
	ws := &auction.Workspace{}
	st, epsAbs, err := auction.Prepare(g.a, g.transpose(), aopt, ws)
	if err != nil {
		return nil, err
	}
	res, err := auction.Finish(g.a, g.transpose(), aopt, resolveSeed(spec.Seed), epsAbs, st, ws)
	if err != nil {
		return nil, err
	}
	s := &DynSession{
		spec:      spec,
		dg:        dyngraph.FromCSR(g.a),
		mt:        res.Matching, // aliases aucSt's mate arrays: Apply's unmatch writes maintain both
		snap:      g,
		auction:   true,
		weighted:  g.Weighted(),
		wmap:      make(map[int64]float64, g.Edges()),
		aucSt:     st,
		aucWs:     ws,
		aucOpt:    aopt,
		aucEpsAbs: epsAbs,
		aucWeight: res.Weight,
	}
	a := g.a
	for i := 0; i < a.RowsN; i++ {
		for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
			w := 1.0
			if a.Val != nil {
				w = a.Val[p]
			}
			s.wmap[edgeKey(i, int(a.Idx[p]))] = w
		}
	}
	s.rep = dyngraph.NewRepairer(s.dg)
	return s, nil
}

func edgeKey(i, j int) int64 { return int64(i)<<32 | int64(j) }

// Rows returns the session's row-vertex count (fixed at creation;
// vertex arrival/departure is expressed as its edge set).
func (s *DynSession) Rows() int { return s.dg.Rows() }

// Cols returns the session's column-vertex count.
func (s *DynSession) Cols() int { return s.dg.Cols() }

// Edges returns the current edge count.
func (s *DynSession) Edges() int { return s.dg.Edges() }

// Size returns the maintained matching's cardinality.
func (s *DynSession) Size() int { return s.mt.Size }

// Exact reports whether the session maintains an exact maximum matching
// (the Spec carried a refinement) or the heuristic's quality profile.
func (s *DynSession) Exact() bool { return s.exact }

// Auction reports whether the session maintains a weighted auction
// matching (the Spec asked for AlgAuction); see MaintainedWeight and
// ApplyWeighted.
func (s *DynSession) Auction() bool { return s.auction }

// Matching returns the maintained matching. It aliases the session —
// valid until the next Apply; callers that retain it must copy.
func (s *DynSession) Matching() *Matching { return s.mt }

// Stats returns the session's lifetime counters.
func (s *DynSession) Stats() DynStats { return s.stats }

// HasEdge reports whether edge (i, j) is currently present.
func (s *DynSession) HasEdge(i, j int) bool {
	return i >= 0 && i < s.dg.Rows() && j >= 0 && j < s.dg.Cols() && s.dg.Has(i, j)
}

// Snapshot returns an immutable Graph of the current adjacency, for the
// one-shot/serving paths (oracle checks, registered-graph matching).
// The snapshot is cached: it is rebuilt (O(rows+edges)) only after a
// batch that actually changed the graph, so matching-neutral batches
// return the identical *Graph and keep its scaling warm — serving layers
// use that pointer identity to decide whether per-graph state keyed on
// the old snapshot must be dropped.
func (s *DynSession) Snapshot() *Graph {
	if s.snap == nil {
		a := s.dg.CSR()
		if s.auction && s.weighted {
			s.fillWeights(a)
		}
		s.snap = newGraph(a)
	}
	return s.snap
}

// fillWeights materializes the session's weight map as a's parallel
// value array (CSR edge order).
func (s *DynSession) fillWeights(a *sparse.CSR) {
	val := make([]float64, len(a.Idx))
	for i := 0; i < a.RowsN; i++ {
		for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
			val[p] = s.wmap[edgeKey(i, int(a.Idx[p]))]
		}
	}
	a.Val = val
}

// MaintainedWeight returns the maintained matched weight of an auction
// session (0 for cardinality sessions).
func (s *DynSession) MaintainedWeight() float64 { return s.aucWeight }

// aucRepair rebuilds the mutated adjacency as a weighted CSR and runs
// the auction repair against the maintained prices: normalization
// (ε-CS re-check plus the unmatched-column price reset and its cascade)
// followed by a bidding phase for the unassigned rows at the session's
// creation-time slack. The per-batch tie-break seed advances with the
// batch counter so the trace stays a pure function of (graph, Spec,
// mutations).
func (s *DynSession) aucRepair() error {
	a := s.dg.CSR()
	if s.weighted {
		s.fillWeights(a)
	}
	at := a.Transpose()
	seed := resolveSeed(s.spec.Seed) + uint64(s.stats.Batches) + 1
	res, err := auction.Repair(a, at, s.aucOpt, seed, s.aucEpsAbs, s.aucSt, s.aucWs)
	if err != nil {
		return err
	}
	s.mt = res.Matching // fresh header over the maintained state arrays
	s.aucWeight = res.Weight
	return nil
}

// Apply absorbs one mutation batch: deletions first, then insertions,
// then matching repair. The batch is
// validated whole before any mutation is applied — an out-of-range
// vertex rejects it with ErrInvalidMutation and the session is
// unchanged. Duplicate edges inside the batch and mutations that do not
// change the graph (inserting a present edge, deleting an absent one)
// are no-ops, reported through the applied counts.
//
// On auction sessions, inserted edges get weight 1.0; use ApplyWeighted
// to insert edges with explicit weights.
func (s *DynSession) Apply(inserts, deletes [][2]int) (*DynResult, error) {
	return s.apply(inserts, nil, deletes)
}

// WeightedEdge is one weighted insertion for ApplyWeighted.
type WeightedEdge struct {
	Row, Col int
	Weight   float64
}

// ApplyWeighted is Apply for auction sessions with explicit insertion
// weights: inserting an edge already present updates its weight (counted
// as applied when the weight actually changes). Weights must be strictly
// positive and finite. The repair re-auctions against the maintained
// prices at the session's creation-time slack, so after every batch the
// maintained weight satisfies weight ≥ opt − |M|·ε_abs on the mutated
// graph. Returns an error on cardinality (non-auction) sessions.
func (s *DynSession) ApplyWeighted(inserts []WeightedEdge, deletes [][2]int) (*DynResult, error) {
	if !s.auction {
		return nil, fmt.Errorf("%w: ApplyWeighted requires an auction session", ErrInvalidMutation)
	}
	ins := make([][2]int, len(inserts))
	weights := make([]float64, len(inserts))
	for k, e := range inserts {
		if !(e.Weight > 0) || math.IsInf(e.Weight, 1) {
			return nil, fmt.Errorf("%w: insert (%d,%d) weight %v not positive finite", ErrInvalidMutation, e.Row, e.Col, e.Weight)
		}
		ins[k] = [2]int{e.Row, e.Col}
		weights[k] = e.Weight
	}
	return s.apply(ins, weights, deletes)
}

// apply is the shared batch body; weights is nil for Apply (auction
// sessions then insert weight 1.0) and parallel to inserts for
// ApplyWeighted.
func (s *DynSession) apply(inserts [][2]int, weights []float64, deletes [][2]int) (*DynResult, error) {
	n, m := s.dg.Rows(), s.dg.Cols()
	for _, e := range deletes {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= m {
			return nil, fmt.Errorf("%w: delete (%d,%d) outside %dx%d", ErrInvalidMutation, e[0], e[1], n, m)
		}
	}
	for _, e := range inserts {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= m {
			return nil, fmt.Errorf("%w: insert (%d,%d) outside %dx%d", ErrInvalidMutation, e[0], e[1], n, m)
		}
	}
	var res DynResult
	s.seedRows = s.seedRows[:0]
	s.seedCols = s.seedCols[:0]

	for _, e := range deletes {
		i, j := e[0], e[1]
		if !s.dg.Delete(i, j) {
			continue
		}
		res.Deleted++
		if s.auction {
			delete(s.wmap, edgeKey(i, j))
		}
		if s.mt.RowMate[i] == int32(j) {
			s.mt.RowMate[i] = Unmatched
			s.mt.ColMate[j] = Unmatched
			s.mt.Size--
			res.Freed++
			s.seedRows = append(s.seedRows, int32(i))
			s.seedCols = append(s.seedCols, int32(j))
		}
	}
	for k, e := range inserts {
		i, j := e[0], e[1]
		w := 1.0
		if weights != nil {
			w = weights[k]
		}
		if !s.dg.Insert(i, j) {
			// Present edge: a weighted insert may still change its weight,
			// which is a real mutation for an auction session.
			if s.auction && weights != nil && s.wmap[edgeKey(i, j)] != w {
				s.wmap[edgeKey(i, j)] = w
				res.Inserted++
				if w != 1 {
					s.weighted = true
				}
			}
			continue
		}
		res.Inserted++
		if s.auction {
			s.wmap[edgeKey(i, j)] = w
			if w != 1 {
				s.weighted = true
			}
		}
		// Augmentation can only start from an exposed endpoint; an edge
		// between two matched vertices changes nothing for the repair
		// (exact sessions re-verify maximality below regardless).
		if s.mt.RowMate[i] == Unmatched {
			s.seedRows = append(s.seedRows, int32(i))
		} else if s.mt.ColMate[j] == Unmatched {
			s.seedCols = append(s.seedCols, int32(j))
		}
	}

	changed := res.Inserted+res.Deleted > 0
	switch {
	case s.auction:
		// Re-auction only when the graph changed: the repair normalizes
		// the maintained prices (reset/cascade over freed and unmatched
		// columns) and runs a bidding phase for the unassigned rows at
		// the creation-time slack. A no-op batch keeps state as is.
		if changed {
			if err := s.aucRepair(); err != nil {
				return nil, err
			}
		}
		res.MaintainedWeight = s.aucWeight
	case s.exact:
		res.Augments = s.rep.Complete(s.mt)
	default:
		res.Augments = s.repairTargeted()
	}

	if changed {
		s.snap = nil
	}
	res.MaintainedSize = s.mt.Size
	s.stats.Batches++
	s.stats.Inserted += res.Inserted
	s.stats.Deleted += res.Deleted
	s.stats.Freed += res.Freed
	s.stats.Augments += res.Augments
	return &res, nil
}

// repairTargeted is the heuristic session's repair: one augmenting DFS
// from each endpoint the batch freed or exposed, rows first then
// columns, each side in ascending vertex order (duplicates skipped) —
// a fixed order, so the repair is deterministic for a given trace. An
// endpoint re-matched by an earlier augmentation is skipped by the
// engine's exposure check.
func (s *DynSession) repairTargeted() int {
	sortUnique(&s.seedRows)
	sortUnique(&s.seedCols)
	augments := 0
	for _, i := range s.seedRows {
		if s.rep.AugmentRow(s.mt, i) {
			augments++
		}
	}
	for _, j := range s.seedCols {
		if s.rep.AugmentCol(s.mt, j) {
			augments++
		}
	}
	return augments
}

func sortUnique(v *[]int32) {
	x := *v
	if len(x) < 2 {
		return
	}
	sort.Slice(x, func(a, b int) bool { return x[a] < x[b] })
	out := x[:1]
	for _, e := range x[1:] {
		if e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	*v = out
}
