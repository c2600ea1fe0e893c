// Package core implements the paper's two matching heuristics and its
// parallel Karp–Sipser kernel for 1-out graphs:
//
//   - OneSided (Algorithm 2, OneSidedMatch): every row samples one column
//     with probability proportional to the doubly stochastic scaling of
//     the matrix, and each chosen column takes one of the rows that chose
//     it, which defines a valid matching of expected size ≥ (1-1/e)·n.
//   - TwoSided (Algorithm 3, TwoSidedMatch): rows and columns both sample,
//     the ≤2n chosen edges form a "1-out" graph on which Karp–Sipser is
//     exact (every component has at most one cycle, Lemma 1).
//   - KarpSipserMT (Algorithm 4): the two-phase parallel Karp–Sipser for
//     1-out graphs, synchronizing only through compare-and-swap on the
//     match array and fetch-and-add on the degree array. It is kept for
//     the paper's figures and benchmarks; the heuristics run its serial
//     form, ksInPlace.
//
// Both heuristics sample in parallel and match on the calling goroutine,
// so their matchings are the same at every worker count, policy and pool
// width. The paper settles conflicts by store order (OneSided) and by
// compare-and-swap order (Algorithm 4), which depend on the schedule;
// here a conflict is settled as a one-worker run in index order would
// settle it:
//
//   - OneSided's rows claim their columns in index order, so the largest
//     row that chose a column keeps it.
//   - TwoSided matches its choice graph with ksInPlace, Algorithm 4 on one
//     goroutine with plain loads and stores, one count word per vertex
//     and no data-dependent branches in its link, start and Phase 2
//     sweeps. Its matchings are those of the atomic kernel run in index
//     order on one goroutine, decoded;
//     TestKarpSipserWidth1SampledChoiceGraphs, TestKarpSipserWidth1HandBuilt,
//     TestKarpSipserInPlaceOfflineFamilies and FuzzKarpSipserWidth1 hold it
//     to that reference.
//
// Neither decodes a result: each writes its row/column matching in place,
// into one session buffer of n+m mates whose first n entries are RowMate
// and last m are ColMate.
//
// The sampling region visits each side's rows in a sparse.DegreeOrder,
// and rows of degree 2 to 16 draw with a fixed trip count (drawFixed).
// Every row keeps its own RNG stream, so each choice is sampleRow's;
// FuzzSampleGrouped checks it row by row, and
// TestSamplingDeterministicAcrossWorkerCounts across widths.
package core

import (
	"math"
	"sync/atomic"

	"repro/internal/exact"
	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// NIL marks an unmatched vertex / empty slot.
const NIL = int32(-1)

// Options configures the heuristics.
type Options struct {
	// Workers is the parallel width; <= 0 means the pool width.
	Workers int
	// Policy schedules the sampling loops; the paper uses (dynamic,512)
	// for sampling and (guided) for KarpSipserMT (see KSPolicy).
	Policy par.Policy
	// Chunk is the scheduling chunk; <= 0 means par.DefaultChunk.
	Chunk int
	// KSPolicy schedules the KarpSipserMT phases.
	KSPolicy par.Policy
	// Seed drives the per-worker RNG streams.
	Seed uint64
	// Pool is the worker pool every parallel region dispatches to; nil
	// means the process-wide par.Default pool. Passing the pool the
	// scaling stage used keeps one resident worker set hot across the
	// whole matching call.
	Pool *par.Pool
	// RowTotals and ColTotals, when non-nil, are the precomputed scaled
	// row and column sampling denominators (scale.Result.RSum / CSum):
	// RowTotals[i] = Σ_j a_ij·dc[j], ColTotals[j] = Σ_i dr[i]·a_ij.
	// With them each sample is a single prefix walk over the row instead
	// of a sum pass plus a walk pass; sampled choices are bit-identical
	// either way because the scaling row pass accumulates the very same
	// products in the very same order. Nil means sampling sums on the
	// fly (the uniform / 0-iteration configurations).
	RowTotals, ColTotals []float64
}

func (o Options) pool() *par.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	return par.Default()
}

func (o Options) chunk() int {
	if o.Chunk <= 0 {
		return par.DefaultChunk
	}
	return o.Chunk
}

// colSeedSalt decorrelates the column-side RNG streams from the row side.
const colSeedSalt = 0x5DEECE66D

// SampleRowChoices draws, for every row i of a, a column j ∈ A_i* with
// probability s_ij / Σ_k s_ik where s_ij = dr[i]·a_ij·dc[j] (the paper's
// probability density function in Algorithms 2 and 3). Rows with no
// entries get NIL. dr or dc may be nil for uniform sampling (the
// "0 scaling iterations" configuration). Like TwoSided it visits the rows
// in degree order (see sparse.DegreeOrder), which it builds for the call.
func SampleRowChoices(a *sparse.CSR, dr, dc []float64, opt Options) []int32 {
	return sampleChoices(a, dc, opt.RowTotals, xrand.Base(opt.Seed), opt)
}

// SampleColChoices is the column-side counterpart operating on the
// transpose at: for every column j it draws a row i ∈ A_*j with probability
// s_ij / Σ_k s_kj.
func SampleColChoices(at *sparse.CSR, dr, dc []float64, opt Options) []int32 {
	return sampleChoices(at, dr, opt.ColTotals, xrand.Base(opt.Seed^colSeedSalt), opt)
}

// sampleChoices draws one column for every row of a under the weights w,
// over a degree order built for the call.
func sampleChoices(a *sparse.CSR, w, tot []float64, base uint64, opt Options) []int32 {
	choice := make([]int32, a.RowsN)
	d := drawSide{a: a, w: w, tot: tot, ord: sparse.NewDegreeOrder(a), out: choice, loop: NIL}
	opt.pool().For(a.RowsN, opt.Workers, opt.Policy, opt.chunk(), func(_, lo, hi int) {
		d.draw(base, lo, hi)
	})
	return choice
}

// sampleRow draws one entry of row i proportionally to dr[i]*v*dc[j].
// Since dr[i] is a common factor it cancels; only dc weights matter within
// the row. A draw r ∈ (0, rowsum] is materialized by walking the prefix
// sums, exactly as described under Algorithm 2. When tot carries the
// precomputed row sums (exported by the scaling row pass) the sum pass is
// skipped entirely and the draw is a single prefix walk.
func sampleRow(a *sparse.CSR, dc []float64, i int, tot []float64, rng *xrand.SplitMix64) int32 {
	s, e := a.Ptr[i], a.Ptr[i+1]
	if s == e {
		return NIL
	}
	var total float64
	if tot != nil {
		total = tot[i]
	} else {
		for p := s; p < e; p++ {
			total += weight(a, dc, p)
		}
	}
	if total <= 0 {
		// Degenerate scaling (all weights zero): fall back to uniform.
		return a.Idx[s+rng.Intn(e-s)]
	}
	r := rng.Float64Open() * total
	acc := 0.0
	for p := s; p < e; p++ {
		acc += weight(a, dc, p)
		if acc >= r {
			return a.Idx[p]
		}
	}
	return a.Idx[e-1] // guard against round-off
}

func weight(a *sparse.CSR, dc []float64, p int) float64 {
	w := 1.0
	if a.Val != nil {
		w = a.Val[p]
	}
	if dc != nil {
		w *= dc[a.Idx[p]]
	}
	return w
}

// OneSided runs OneSidedMatch (Algorithm 2) given the matrix and its
// scaling vectors on a throwaway Session; see Session.OneSided. It returns
// the cmatch array (cmatch[j] = row matched to column j, or NIL), which is
// the matching's ColMate, and the matching cardinality.
func OneSided(a *sparse.CSR, dr, dc []float64, opt Options) ([]int32, int) {
	s := NewSession(a, nil, opt)
	s.SetScaling(dr, dc, opt.RowTotals, nil)
	mt := s.OneSided(opt.Seed)
	return mt.ColMate, mt.Size
}

// ChoiceGraph is the 1-out subgraph built by TwoSidedMatch: vertex u in
// [0, N) is row u, vertex N+j is column j, and Choice[u] is the single
// neighbor u sampled. The edge set of the graph is
// {{u, Choice[u]}} ∪ {{Choice[v], v}}, at most N+M edges.
type ChoiceGraph struct {
	N, M   int
	Choice []int32 // len N+M; Choice[u] is a vertex id in the opposite side
}

// NewChoiceGraph assembles a choice graph from row choices (column indices)
// and column choices (row indices), converting them to vertex ids. Rows or
// columns with NIL choices (empty rows/columns) point to themselves, which
// KarpSipserMT treats as isolated.
func NewChoiceGraph(n, m int, rchoice, cchoice []int32) *ChoiceGraph {
	g := &ChoiceGraph{N: n, M: m, Choice: make([]int32, n+m)}
	for i := 0; i < n; i++ {
		if rchoice[i] == NIL {
			g.Choice[i] = int32(i) // self loop = isolated
		} else {
			g.Choice[i] = int32(n) + rchoice[i]
		}
	}
	for j := 0; j < m; j++ {
		if cchoice[j] == NIL {
			g.Choice[n+j] = int32(n + j)
		} else {
			g.Choice[n+j] = cchoice[j]
		}
	}
	return g
}

// ToCSR materializes the choice graph as a bipartite CSR (rows × cols)
// containing the union of the chosen edges. Used by tests to compare
// KarpSipserMT against an exact algorithm, and by the fine-grained
// structure analysis.
func (g *ChoiceGraph) ToCSR() *sparse.CSR {
	entries := make([]sparse.Coord, 0, g.N+g.M)
	for u := 0; u < g.N; u++ {
		v := g.Choice[u]
		if int(v) != u {
			entries = append(entries, sparse.Coord{I: int32(u), J: v - int32(g.N)})
		}
	}
	for j := 0; j < g.M; j++ {
		v := g.Choice[g.N+j]
		if int(v) != g.N+j {
			entries = append(entries, sparse.Coord{I: v, J: int32(j)})
		}
	}
	a, err := sparse.FromCOO(g.N, g.M, entries, false)
	if err != nil {
		panic("core: choice graph produced invalid CSR: " + err.Error())
	}
	return a
}

// KarpSipserMT runs Algorithm 4 on a choice graph and returns the match
// array over the N+M vertex ids. On graphs built by TwoSidedMatch the
// result is a maximum matching of the choice graph (Lemmas 1–3). This is
// the paper's kernel, kept for Fig. 4a and Table 3 in internal/bench and
// for BenchmarkKarpSipserMTWidths; Session.TwoSided always runs ksInPlace.
// All cross-thread communication happens through atomics: a
// compare-and-swap claims a neighbor, a fetch-and-add tracks the residual
// degree, so the kernel needs no locks, no vertex lists and no conflict
// queues, and which of two competing vertices wins a claim depends on the
// schedule. A run whose regions get one worker has no other thread to
// synchronize with and takes ksInPlace instead, with its row/column mates
// turned back into vertex ids.
func KarpSipserMT(g *ChoiceGraph, opt Options) []int32 {
	nm := g.N + g.M
	match := make([]int32, nm)
	pool := opt.pool()
	workers := opt.Workers
	pol := opt.KSPolicy
	chunk := opt.chunk()
	if pool.Slots(nm, workers) <= 1 {
		ksInPlace(g.Choice, match, make([]int32, nm), g.N, chunk, nil)
		for u, v := range match[:g.N] {
			if v != NIL {
				match[u] = v + int32(g.N)
			}
		}
		return match
	}
	mark := make([]int32, nm)
	deg := make([]int32, nm)
	pool.For(nm, workers, pol, chunk, func(_, lo, hi int) {
		ksInitRange(match, mark, deg, lo, hi)
	})
	pool.For(nm, workers, pol, chunk, func(_, lo, hi int) {
		ksLinkRange(g.Choice, mark, deg, lo, hi)
	})
	pool.For(nm, workers, pol, chunk, func(_, lo, hi int) {
		ksPhase1Range(g.Choice, match, mark, deg, lo, hi)
	})
	pool.For(g.M, workers, pol, chunk, func(_, lo, hi int) {
		ksPhase2Range(g.Choice, match, g.N, lo, hi)
	})
	return match
}

// ksInitRange seeds the per-vertex state of Algorithm 4.
func ksInitRange(match, mark, deg []int32, lo, hi int) {
	for u := lo; u < hi; u++ {
		mark[u] = 1
		deg[u] = 1
		match[u] = NIL
	}
}

// ksLinkRange accounts the in-edges: vertices that were chosen by someone
// are not out-one candidates, and each in-edge beyond the vertex's own
// out-edge bumps its degree.
func ksLinkRange(choice, mark, deg []int32, lo, hi int) {
	for u := lo; u < hi; u++ {
		v := choice[u]
		if int(v) == u {
			continue // isolated vertex: no edge at all
		}
		atomic.StoreInt32(&mark[v], 0)
		if int(choice[v]) != u {
			atomic.AddInt32(&deg[v], 1)
		}
	}
}

// ksPhase1Range is Phase 1 of Algorithm 4: consume out-one vertices,
// following each chain of newly created out-one vertices without any list
// (Lemma 4: consuming an out-one vertex creates at most one new one).
func ksPhase1Range(choice, match, mark, deg []int32, lo, hi int) {
	for u := lo; u < hi; u++ {
		if atomic.LoadInt32(&mark[u]) != 1 || int(choice[u]) == u {
			continue
		}
		curr := int32(u)
		for curr != NIL {
			nbr := choice[curr]
			if nbr == curr {
				break // chain ran into an isolated (self-loop) vertex
			}
			if atomic.CompareAndSwapInt32(&match[nbr], NIL, curr) {
				atomic.StoreInt32(&match[curr], nbr)
				next := choice[nbr]
				if int(next) != int(nbr) && atomic.LoadInt32(&match[next]) == NIL &&
					atomic.AddInt32(&deg[next], -1) == 1 {
					// We performed the last consumption before next
					// became out-one: continue the chain with it.
					curr = next
					continue
				}
			}
			// Either the neighbor was claimed by another thread (the
			// competing matching decision wins, ours is dropped), or
			// the chain ended.
			curr = NIL
		}
	}
}

// ksPhase2Range is Phase 2 of Algorithm 4 over columns [lo, hi): the
// residual graph is a disjoint union of simple cycles, 2-cliques and
// isolated vertices (Lemma 3); the column-side choice edges of each cycle
// form a maximum matching of it, so a single parallel sweep over column
// vertices finishes the job. The CAS never fails on valid choice graphs;
// it is kept so that adversarial inputs still yield a valid (if not
// maximum) matching.
func ksPhase2Range(choice, match []int32, n int, lo, hi int) {
	for j := lo; j < hi; j++ {
		u := int32(n + j)
		v := choice[u]
		if v == u {
			continue
		}
		if atomic.LoadInt32(&match[u]) == NIL && atomic.LoadInt32(&match[v]) == NIL {
			if atomic.CompareAndSwapInt32(&match[v], NIL, u) {
				atomic.StoreInt32(&match[u], v)
			}
		}
	}
}

// chosen is the flag bit of a ksInPlace count word, set once some vertex
// chose the vertex. It is the sign bit: a count is at most n+m, so no
// count reaches it while n+m fits in an int32.
const chosen = math.MinInt32

// ksInPlace runs Algorithm 4 on the calling goroutine and writes the
// matching straight into mate, a buffer of one entry per vertex that is
// the row/column matching of the choice graph: mate[:n] is RowMate (the
// column index each row took, or NIL) and mate[n:] is ColMate (the row
// index each column took). It returns the matching's size. cnt is one
// count word per vertex, left holding garbage. The kernel polls cancel
// (when non-nil) before every chunk of vertices, like a one-worker
// par.Pool.ForCancel region, and reports false when cancel fired; mate
// and the size are then partial.
//
// With no other thread to synchronize with, every atomic becomes a plain
// load or store, and one count word per vertex replaces Algorithm 4's
// mark and degree arrays: the vertex's residual degree, plus the chosen
// flag once any vertex chose it. The flag is set by the link pass and
// never cleared, because a count never falls below zero. The unchosen
// vertices are exactly Phase 1's out-one starts. Phase 1 compacts them a
// block at a time (ksPhase1Serial), Phase 2 writes both mates through a
// select, and both count the size as they match.
//
// The chains consume the same vertices in the same order as the atomic
// kernel run in index order on one goroutine, so the matching is bit for
// bit that kernel's, decoded; TestKarpSipserWidth1SampledChoiceGraphs,
// TestKarpSipserWidth1HandBuilt, TestKarpSipserInPlaceOfflineFamilies and
// FuzzKarpSipserWidth1 hold it to it.
func ksInPlace(choice, mate, cnt []int32, n, chunk int, cancel func() bool) (size int, ok bool) {
	nm := len(choice)
	ok = serialChunks(nm, chunk, cancel, func(lo, hi int) { ksInitSerial(mate, cnt, lo, hi) }) &&
		serialChunks(nm, chunk, cancel, func(lo, hi int) { ksLinkSerial(choice, cnt, lo, hi) }) &&
		serialChunks(nm, chunk, cancel, func(lo, hi int) { size += ksPhase1Serial(choice, mate, cnt, n, lo, hi) }) &&
		serialChunks(nm-n, chunk, cancel, func(lo, hi int) { size += ksPhase2Serial(choice, mate, n, n+lo, n+hi) })
	return size, ok
}

// serialChunks calls body over [0, n) in chunks, in index order on the
// calling goroutine, polling cancel (when non-nil) before each chunk. It
// reports whether every chunk ran.
func serialChunks(n, chunk int, cancel func() bool, body func(lo, hi int)) bool {
	for lo := 0; lo < n; lo += chunk {
		if cancel != nil && cancel() {
			return false
		}
		body(lo, min(lo+chunk, n))
	}
	return true
}

// ksInitSerial leaves every vertex of [lo, hi) unmatched, unchosen and of
// degree 1, its own out-edge.
func ksInitSerial(mate, cnt []int32, lo, hi int) {
	for u := range mate[lo:hi] {
		mate[lo+u] = NIL
	}
	for u := range cnt[lo:hi] {
		cnt[lo+u] = 1
	}
}

// ksLinkSerial is ksLinkRange on one goroutine, without branches, on the
// count words: an isolated vertex u flags itself, and choice[u] == u adds
// nothing to its degree.
func ksLinkSerial(choice, cnt []int32, lo, hi int) {
	for u := lo; u < hi; u++ {
		v := choice[u]
		cnt[v] = (cnt[v] + int32(b2i(choice[v] != int32(u)))) | chosen
	}
}

// ksStartBlock is how many vertices ksPhase1Serial compacts at a time.
const ksStartBlock = 256

// ksPhase1Serial is ksPhase1Range on one goroutine over the vertices
// [lo, hi): it compacts their out-one starts, the unchosen vertices, into
// a list on the stack a block at a time, in index order, then follows each
// start's chain, and returns the number of pairs it matched. A chain never
// changes whether a vertex is chosen, so the starts of later vertices are
// those the link pass left. A chain stays on its start's side: curr is a
// row when the start is, and nbr a column.
func ksPhase1Serial(choice, mate, cnt []int32, n, lo, hi int) int {
	var starts [ksStartBlock]int32
	size := 0
	for blo := lo; blo < hi; blo += ksStartBlock {
		k := 0
		for u, c := range cnt[blo:min(blo+ksStartBlock, hi)] {
			starts[k] = int32(blo + u)
			k += b2i(c >= 0)
		}
		for _, curr := range starts[:k] {
			// Each mate is stored minus its side's offset: currOff for
			// curr's side, n-currOff for nbr's.
			currOff := int32(n * b2i(int(curr) >= n))
			nbrOff := int32(n) - currOff
			for {
				nbr := choice[curr]
				if nbr == curr || mate[nbr] != NIL {
					break
				}
				mate[nbr] = curr - currOff
				mate[curr] = nbr - nbrOff
				size++
				next := choice[nbr]
				if next == nbr || mate[next] != NIL {
					break
				}
				cnt[next]--
				if cnt[next] != chosen|1 {
					break
				}
				curr = next
			}
		}
	}
	return size
}

// ksPhase2Serial is ksPhase2Range on one goroutine over the column vertices
// [lo, hi): a column u and its choice v, a row, take each other exactly
// when u is not isolated and both are free. It returns the number of
// pairs it matched.
func ksPhase2Serial(choice, mate []int32, n, lo, hi int) int {
	size := 0
	for u := lo; u < hi; u++ {
		v := choice[u]
		mu, mv := mate[u], mate[v]
		take := b2i(v != int32(u)) & b2i(mu == NIL) & b2i(mv == NIL)
		if take != 0 {
			mu, mv = v, int32(u-n)
		}
		mate[v] = mv
		mate[u] = mu
		size += take
	}
	return size
}

// Result is the outcome of TwoSided. It aliases the session that
// produced it (see Session).
type Result struct {
	// Matching is the maximum matching of the choice graph in row/column
	// form; its RowMate and ColMate are the two ends of one buffer.
	Matching *exact.Matching
	// Graph is the sampled 1-out graph, exposed for analysis.
	Graph *ChoiceGraph
}

// TwoSided runs TwoSidedMatch (Algorithm 3) on a throwaway Session: sample
// row and column choices from the scaled matrix in one parallel region,
// then match the resulting 1-out graph exactly with ksInPlace. See
// Session.TwoSided.
func TwoSided(a, at *sparse.CSR, dr, dc []float64, opt Options) *Result {
	s := NewSession(a, at, opt)
	s.SetScaling(dr, dc, opt.RowTotals, opt.ColTotals)
	return s.TwoSided(opt.Seed)
}

// DecodeMatch converts a vertex-indexed match array, as KarpSipserMT
// returns it, into row/column form, keeping only mutual pairs (u matched
// to v and v matched to u). The sessions need no decoding: ksInPlace
// writes the row/column form itself.
func DecodeMatch(g *ChoiceGraph, match []int32) *exact.Matching {
	mt := exact.NewMatching(g.N, g.M)
	for u := 0; u < g.N; u++ {
		if v := match[u]; v != NIL && match[v] == int32(u) {
			mt.RowMate[u] = v - int32(g.N)
			mt.ColMate[v-int32(g.N)] = int32(u)
			mt.Size++
		}
	}
	return mt
}

// CMatchToMatching converts a OneSided cmatch array (the matched row of
// each column, or NIL) into row/column form.
func CMatchToMatching(n int, cmatch []int32) *exact.Matching {
	mt := exact.NewMatching(n, len(cmatch))
	for j, i := range cmatch {
		if i != NIL {
			mt.ColMate[j] = i
			mt.RowMate[i] = int32(j)
			mt.Size++
		}
	}
	return mt
}
