// Package undirected extends the paper's heuristics to general (non-
// bipartite) graphs — the future-work direction announced in the paper's
// conclusion ("the algorithms and results extend naturally").
//
// The TwoSidedMatch analog for an undirected graph G samples one neighbor
// per vertex from a symmetry-preserving doubly stochastic scaling of G's
// adjacency matrix, giving a "1-out" subgraph in which every component
// again has at most one cycle (n vertices, ≤ n distinct edges). Karp–
// Sipser is exact on such pseudoforests, but unlike the bipartite case the
// surviving cycles can be odd, so the second phase walks each cycle and
// matches alternating edges instead of using the bipartite column-side
// trick. Sampling runs in parallel and Karp–Sipser on the calling
// goroutine, so a matching is the same at every worker count, policy and
// pool width.
package undirected

import (
	"errors"
	"math"

	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// NIL marks an unmatched vertex.
const NIL = int32(-1)

// ErrNotSymmetric reports an adjacency structure that is not symmetric.
var ErrNotSymmetric = errors.New("undirected: adjacency pattern not symmetric")

// Graph is an undirected graph stored as a symmetric sparse adjacency
// pattern (both (u,v) and (v,u) present; self loops ignored for matching).
type Graph struct {
	A *sparse.CSR
}

// New validates that a is square and symmetric and wraps it.
func New(a *sparse.CSR) (*Graph, error) {
	if a.RowsN != a.ColsN {
		return nil, ErrNotSymmetric
	}
	if !a.Equal(a.Transpose()) {
		return nil, ErrNotSymmetric
	}
	return &Graph{A: a}, nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.A.RowsN }

// Options mirrors core.Options for the undirected kernels.
type Options struct {
	Workers int
	Policy  par.Policy
	Chunk   int
	Seed    uint64
	// Pool is the worker pool the scaling and sampling regions dispatch
	// to; nil means the process-wide par.Default pool.
	Pool *par.Pool
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

// ScaleSymmetric computes a single scaling vector d such that s_ij =
// d[i]·a_ij·d[j] approaches symmetric doubly stochastic form, using the
// symmetry-preserving iteration of Knight, Ruiz and Uçar (each step
// divides d by the square root of the current row sums). It returns d and
// the final error max_i |rowsum_i − 1|. Each row is summed on one worker,
// so d is the same at every width.
func ScaleSymmetric(a *sparse.CSR, iters int, opt Options) ([]float64, float64) {
	n := a.RowsN
	d := make([]float64, n)
	for i := range d {
		d[i] = 1
	}
	rsum := make([]float64, n)
	compute := func() {
		opt.pool().For(n, opt.Workers, opt.Policy, opt.chunk(), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				s := 0.0
				for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
					v := 1.0
					if a.Val != nil {
						v = a.Val[p]
					}
					s += d[i] * v * d[a.Idx[p]]
				}
				rsum[i] = s
			}
		})
	}
	for it := 0; it < iters; it++ {
		compute()
		opt.pool().For(n, opt.Workers, opt.Policy, opt.chunk(), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if rsum[i] > 0 {
					d[i] /= math.Sqrt(rsum[i])
				}
			}
		})
	}
	compute()
	err := 0.0
	for i := 0; i < n; i++ {
		if a.Ptr[i] < a.Ptr[i+1] {
			if e := math.Abs(rsum[i] - 1); e > err {
				err = e
			}
		}
	}
	return d, err
}

// SampleChoices draws one neighbor per vertex with probability
// proportional to the scaled entries (d may be nil for uniform). Isolated
// vertices and vertices whose only neighbor is themselves get NIL.
func SampleChoices(a *sparse.CSR, d []float64, opt Options) []int32 {
	n := a.RowsN
	choice := make([]int32, n)
	base := xrand.Base(opt.Seed)
	opt.pool().For(n, opt.Workers, opt.Policy, opt.chunk(), func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			rng := xrand.Indexed(base, u)
			choice[u] = sampleNeighbor(a, d, u, &rng)
		}
	})
	return choice
}

func sampleNeighbor(a *sparse.CSR, d []float64, u int, rng *xrand.SplitMix64) int32 {
	s, e := a.Ptr[u], a.Ptr[u+1]
	total := 0.0
	for p := s; p < e; p++ {
		if int(a.Idx[p]) == u {
			continue // never choose a self loop
		}
		total += weight(a, d, p)
	}
	if total <= 0 {
		return NIL
	}
	r := rng.Float64Open() * total
	acc := 0.0
	last := NIL
	for p := s; p < e; p++ {
		if int(a.Idx[p]) == u {
			continue
		}
		acc += weight(a, d, p)
		last = a.Idx[p]
		if acc >= r {
			return a.Idx[p]
		}
	}
	return last
}

func weight(a *sparse.CSR, d []float64, p int) float64 {
	w := 1.0
	if a.Val != nil {
		w = a.Val[p]
	}
	if d != nil {
		w *= d[a.Idx[p]]
	}
	return w
}

// KarpSipser1Out computes a maximum matching of the 1-out subgraph defined
// by choice (choice[u] = NIL for isolated vertices) on the calling
// goroutine. Phase 1 is the out-one chain consumption of the bipartite
// kernel run in index order; the residual graph is a disjoint union of
// cycles and 2-cliques, which a cycle-walking second phase matches
// optimally ((len-1)/2 edges on odd cycles, len/2 on even ones).
func KarpSipser1Out(choice []int32) []int32 {
	n := len(choice)
	match := make([]int32, n)
	mark := make([]int32, n)
	deg := make([]int32, n)
	for u := range match {
		match[u] = NIL
		mark[u] = 1
		deg[u] = 1
	}
	for u, v := range choice {
		if v == NIL || int(v) == u {
			continue
		}
		mark[v] = 0
		if choice[v] != int32(u) {
			deg[v]++
		}
	}

	// Phase 1: out-one chains, as in the bipartite kernel.
	for u := range choice {
		if mark[u] != 1 || choice[u] == NIL || int(choice[u]) == u {
			continue
		}
		curr := int32(u)
		for curr != NIL {
			nbr := choice[curr]
			if nbr == NIL || nbr == curr {
				break // chain ran into a vertex with no out-edge
			}
			if match[nbr] == NIL {
				match[nbr] = curr
				match[curr] = nbr
				next := choice[nbr]
				if next != NIL && next != nbr && match[next] == NIL {
					deg[next]--
					if deg[next] == 1 {
						curr = next
						continue
					}
				}
			}
			curr = NIL
		}
	}

	// Phase 2: remaining unmatched vertices lie on pure choice-cycles
	// (u -> choice[u] -> ... -> u, all unmatched). Walk each cycle once,
	// matching alternating edges; odd cycles leave exactly one vertex
	// free. Total cycle mass is tiny (O(sqrt(n)) expected on random 1-out
	// graphs).
	visited := make([]bool, n)
	for u := 0; u < n; u++ {
		if match[u] != NIL || visited[u] || choice[u] == NIL || int(choice[u]) == u {
			continue
		}
		// Collect the chain u -> choice[u] -> ... until it closes on
		// itself (a cycle, possibly with a tail for adversarial inputs)
		// or dies at a matched/foreign vertex.
		cyc := []int32{int32(u)}
		pos := map[int32]int{int32(u): 0}
		visited[u] = true
		v := choice[u]
		start := -1
		for {
			if v == NIL || match[v] != NIL {
				break // dead end: the tail stays free
			}
			if p, ok := pos[v]; ok {
				start = p // chain closed: cyc[start:] is the cycle
				break
			}
			if visited[v] {
				break // joins an earlier walk's tail
			}
			visited[v] = true
			pos[v] = len(cyc)
			cyc = append(cyc, v)
			v = choice[v]
		}
		if start < 0 {
			continue
		}
		ring := cyc[start:]
		for k := 0; k+1 < len(ring); k += 2 {
			match[ring[k]] = ring[k+1]
			match[ring[k+1]] = ring[k]
		}
	}
	return match
}

// Result is the outcome of Match.
type Result struct {
	Match    []int32 // match[u] = partner of u, or NIL
	Size     int     // number of matched edges
	Choices  []int32 // the sampled 1-out structure, for analysis
	ScaleErr float64
}

// Match runs the undirected 1-out heuristic: symmetric scaling, neighbor
// sampling, exact Karp–Sipser on the sampled pseudoforest.
func (g *Graph) Match(scalingIters int, opt Options) *Result {
	var d []float64
	var errv float64
	if scalingIters > 0 {
		d, errv = ScaleSymmetric(g.A, scalingIters, opt)
	}
	choices := SampleChoices(g.A, d, opt)
	match := KarpSipser1Out(choices)
	size := 0
	for u, v := range match {
		if v != NIL && int(v) > u {
			size++
		}
	}
	return &Result{Match: match, Size: size, Choices: choices, ScaleErr: errv}
}

// Validate checks that match is a valid matching of g: mutual partners
// joined by actual edges, no self-matches.
func (g *Graph) Validate(match []int32) error {
	if len(match) != g.N() {
		return errors.New("undirected: match length mismatch")
	}
	for u, v := range match {
		if v == NIL {
			continue
		}
		if int(v) == u {
			return errors.New("undirected: self-matched vertex")
		}
		if v < 0 || int(v) >= g.N() || match[v] != int32(u) {
			return errors.New("undirected: partners not mutual")
		}
		found := false
		for _, w := range g.A.Row(u) {
			if w == v {
				found = true
				break
			}
		}
		if !found {
			return errors.New("undirected: matched pair is not an edge")
		}
	}
	return nil
}
