package bipartite

import (
	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/undirected"
	"repro/internal/xrand"
)

// UndirectedGraph is a general (non-bipartite) graph on which the 1-out
// matching heuristic runs — the extension announced in the paper's
// conclusion. Construct with NewUndirected or RandomUndirected.
type UndirectedGraph struct {
	g *undirected.Graph
}

// NewUndirected builds an undirected graph from a symmetric edge list
// (each undirected edge may be given once; both directions are stored).
func NewUndirected(n int, edges [][2]int) (*UndirectedGraph, error) {
	coords := make([]sparse.Coord, 0, 2*len(edges))
	for _, e := range edges {
		coords = append(coords,
			sparse.Coord{I: int32(e[0]), J: int32(e[1])},
			sparse.Coord{I: int32(e[1]), J: int32(e[0])})
	}
	a, err := sparse.FromCOO(n, n, coords, false)
	if err != nil {
		return nil, err
	}
	g, err := undirected.New(a)
	if err != nil {
		return nil, err
	}
	return &UndirectedGraph{g: g}, nil
}

// RandomUndirected returns a symmetric Erdős–Rényi graph with the given
// average degree (self loops excluded).
func RandomUndirected(n int, avgDeg float64, seed uint64) *UndirectedGraph {
	rng := xrand.New(seed)
	m := int(avgDeg * float64(n) / 2)
	coords := make([]sparse.Coord, 0, 2*m)
	for k := 0; k < m; k++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		coords = append(coords, sparse.Coord{I: u, J: v}, sparse.Coord{I: v, J: u})
	}
	a, err := sparse.FromCOO(n, n, coords, false)
	if err != nil {
		panic("bipartite: RandomUndirected generated invalid matrix: " + err.Error())
	}
	g, err := undirected.New(a)
	if err != nil {
		panic("bipartite: RandomUndirected not symmetric: " + err.Error())
	}
	return &UndirectedGraph{g: g}
}

// Vertices returns the number of vertices.
func (u *UndirectedGraph) Vertices() int { return u.g.N() }

// Edges returns the number of undirected edges.
func (u *UndirectedGraph) Edges() int { return u.g.A.NNZ() / 2 }

// UndirectedResult is the outcome of UndirectedGraph.Match.
type UndirectedResult struct {
	// Mate[v] is the partner of vertex v, or Unmatched.
	Mate []int32
	// Size is the number of matched edges.
	Size int
	// ScalingError is the symmetric-scaling residual.
	ScalingError float64
}

// Match runs the undirected 1-out heuristic: symmetric doubly stochastic
// scaling, one sampled neighbor per vertex, and an exact Karp–Sipser pass
// over the sampled pseudoforest (odd cycles handled) on the calling
// goroutine, so the mates are the same at every width.
func (u *UndirectedGraph) Match(opt *Options) *UndirectedResult {
	v := opt.normalized()
	res := u.g.Match(v.ScalingIterations, undirected.Options{
		Workers: v.Workers, Policy: par.Dynamic, Seed: v.Seed, Pool: v.Pool.inner()})
	return &UndirectedResult{Mate: res.Match, Size: res.Size, ScalingError: res.ScaleErr}
}

// ValidateUndirected checks mate consistency against the graph.
func (u *UndirectedGraph) Validate(mate []int32) error { return u.g.Validate(mate) }
