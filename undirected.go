package bipartite

import (
	"sync"

	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/undirected"
)

// UndirectedGraph is a general (non-bipartite) graph on which the 1-out
// matching heuristic runs — the extension announced in the paper's
// conclusion. Construct with NewUndirected or RandomUndirected.
//
// Like a Graph, it keeps one symmetric scaling per ScalingIterations
// value (8 bytes per vertex), computed by the first Match that needs it
// and shared read-only by every later one.
type UndirectedGraph struct {
	g *undirected.Graph

	scMu     sync.Mutex
	scalings []*symScaling // one per ScalingIterations value; guarded by scMu
}

// symScaling is an UndirectedGraph's symmetric scaling under one
// iteration count; it is read-only once published.
type symScaling struct {
	iters int
	d     []float64
	err   float64
}

// scaling returns u's symmetric scaling under iters iterations,
// computing it on first use. The compute runs without the lock: its
// sweeps may dispatch to a pool, whose steal-back wait could run a task
// that waits on the lock. ScaleSymmetric gives the same vector at every
// width, so concurrent first callers that each compute agree, and the
// first result published is the one kept.
func (u *UndirectedGraph) scaling(iters int, opt undirected.Options) *symScaling {
	find := func() *symScaling {
		for _, sc := range u.scalings {
			if sc.iters == iters {
				return sc
			}
		}
		return nil
	}
	u.scMu.Lock()
	sc := find()
	u.scMu.Unlock()
	if sc != nil {
		return sc
	}
	if hook := scaleRunHook.Load(); hook != nil {
		(*hook)()
	}
	d, err := undirected.ScaleSymmetric(u.g.A, iters, opt)
	u.scMu.Lock()
	defer u.scMu.Unlock()
	if sc := find(); sc != nil {
		return sc
	}
	sc = &symScaling{iters: iters, d: d, err: err}
	u.scalings = append(u.scalings, sc)
	return sc
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
	g, err := undirected.New(gen.SymmetricER(n, avgDeg, seed))
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
// goroutine, so the mates are the same at every width. seed keys the
// sampling; 0 means 1, as for Spec.Seed. The scaling is the graph's own
// for the iteration count, computed on the first call.
func (u *UndirectedGraph) Match(seed uint64, opt *Options) *UndirectedResult {
	v := opt.normalized()
	uo := undirected.Options{Workers: v.Workers, Policy: par.Dynamic, Seed: resolveSeed(seed), Pool: v.Pool.inner()}
	var sc symScaling
	if v.ScalingIterations > 0 {
		sc = *u.scaling(v.ScalingIterations, uo)
	}
	res := u.g.MatchScaled(sc.d, uo)
	return &UndirectedResult{Mate: res.Match, Size: res.Size, ScalingError: sc.err}
}

// ValidateUndirected checks mate consistency against the graph.
func (u *UndirectedGraph) Validate(mate []int32) error { return u.g.Validate(mate) }
