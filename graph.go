package bipartite

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dm"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/ks"
	"repro/internal/mmio"
	"repro/internal/sparse"
)

// Matching pairs rows with columns: RowMate[i] is the column matched to
// row i (or -1), ColMate[j] the row matched to column j (or -1), and Size
// the cardinality.
type Matching = exact.Matching

// KarpSipserStats reports how a classic Karp–Sipser run unfolded
// (degree-one rule matches vs random picks).
type KarpSipserStats = ks.Stats

// DMDecomposition is the coarse Dulmage–Mendelsohn decomposition returned
// by Graph.DulmageMendelsohn.
type DMDecomposition = dm.Coarse

// Unmatched is the sentinel used in matching and choice arrays.
const Unmatched = exact.NIL

// Graph is a bipartite graph stored as the sparse pattern of its
// biadjacency matrix. The zero value is not usable; construct with one of
// the constructors or generators. A Graph is immutable after construction;
// all methods are safe for concurrent use. Its lazy caches are
// synchronized, because batch serving builds them from pool workers, and
// are freed with the Graph:
//
//   - the transpose, built on first use;
//   - the degree orders of rows and columns, built on the first TwoSided
//     run (4 bytes per vertex);
//   - one scaling per ScalingIterations value, computed on the first run
//     that needs it and shared read-only by every later one (16 bytes per
//     vertex);
//   - the structural rank, and the counts of non-isolated rows and
//     columns behind its cheap upper bound and the search side of every
//     exact refinement.
type Graph struct {
	a      *sparse.CSR
	atOnce sync.Once
	at     *sparse.CSR // transpose, built lazily under atOnce

	ordOnce        sync.Once
	rowOrd, colOrd *sparse.DegreeOrder // degree orders, built lazily under ordOnce

	scMu    sync.Mutex
	scCells []*scaleCell // one per ScalingIterations value; guarded by scMu

	sprank             atomic.Int64 // cached maximum matching size + 1; 0 until computed
	liveOnce           sync.Once
	liveRows, liveCols int // non-isolated rows and columns, counted under liveOnce
}

func newGraph(a *sparse.CSR) *Graph { return &Graph{a: a} }

// NewGraph builds a graph from raw CSR components: ptr has length rows+1,
// idx holds the column index of each edge. The input is validated and the
// rows are sorted if needed.
func NewGraph(rows, cols int, ptr []int, idx []int32) (*Graph, error) {
	a, err := sparse.New(rows, cols, ptr, idx, nil)
	if err != nil {
		return nil, err
	}
	if !a.HasSortedRows() {
		a.SortRows()
	}
	return newGraph(a), nil
}

// FromEdges builds a graph from an edge list; duplicate edges are merged.
func FromEdges(rows, cols int, edges [][2]int) (*Graph, error) {
	coords := make([]sparse.Coord, len(edges))
	for k, e := range edges {
		if e[0] < 0 || e[0] >= rows || e[1] < 0 || e[1] >= cols {
			return nil, fmt.Errorf("bipartite: edge (%d,%d) outside %dx%d", e[0], e[1], rows, cols)
		}
		coords[k] = sparse.Coord{I: int32(e[0]), J: int32(e[1])}
	}
	a, err := sparse.FromCOO(rows, cols, coords, false)
	if err != nil {
		return nil, err
	}
	return newGraph(a), nil
}

// ReadMatrixMarket loads a graph from a Matrix Market coordinate file.
func ReadMatrixMarket(path string) (*Graph, error) {
	a, err := mmio.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return newGraph(a), nil
}

// WriteMatrixMarket stores the graph's pattern in Matrix Market format.
func (g *Graph) WriteMatrixMarket(path string) error {
	return mmio.WriteFile(path, g.a)
}

// --- generators -----------------------------------------------------------

// RandomER returns an Erdős–Rényi random graph with the given shape and
// average row degree (Matlab sprand-style, as in the paper's §4.1.3).
func RandomER(rows, cols int, avgDeg float64, seed uint64) *Graph {
	return newGraph(gen.ERAvgDeg(rows, cols, avgDeg, seed))
}

// Complete returns the complete bipartite graph K_{n,n} (the all-ones
// matrix of Conjecture 1).
func Complete(n int) *Graph { return newGraph(gen.Full(n)) }

// HardForKarpSipser returns the Fig. 2 adversarial family: Karp–Sipser's
// quality degrades as k grows while TwoSidedMatch is unaffected.
func HardForKarpSipser(n, k int) *Graph { return newGraph(gen.BadKS(n, k)) }

// Grid2D returns the 5-point stencil graph of an nx×ny mesh.
func Grid2D(nx, ny int) *Graph { return newGraph(gen.Grid2D(nx, ny)) }

// Grid3D returns the 7-point (or dense 27-point) stencil graph of an
// nx×ny×nz mesh.
func Grid3D(nx, ny, nz int, full27 bool) *Graph { return newGraph(gen.Grid3D(nx, ny, nz, full27)) }

// RoadNetwork returns a road-network-like thinned grid with the given
// average degree (slightly rank-deficient, like europe_osm/road_usa).
func RoadNetwork(n int, avgDeg float64, seed uint64) *Graph {
	return newGraph(gen.RoadLike(n, avgDeg, seed))
}

// PowerLaw returns a graph with Pareto(dmin, alpha) row degrees.
func PowerLaw(n int, dmin, alpha float64, maxDeg int, seed uint64) *Graph {
	return newGraph(gen.PowerLaw(n, dmin, alpha, maxDeg, seed))
}

// Banded returns a banded pattern with the given diagonal offsets.
func Banded(n int, offsets ...int) *Graph { return newGraph(gen.Band(n, offsets...)) }

// FullyIndecomposable returns a matrix with total support (identity +
// cyclic shift + extras random entries per row), the §4.1.1 workload.
func FullyIndecomposable(n, extras int, seed uint64) *Graph {
	return newGraph(gen.FullyIndecomposable(n, extras, seed))
}

// SaddlePoint returns a KKT-structured symmetric pattern [[A B];[Bᵀ 0]].
func SaddlePoint(nA, nB, extra int, seed uint64) *Graph {
	return newGraph(gen.KKTLike(nA, nB, extra, seed))
}

// --- accessors ------------------------------------------------------------

// Rows returns |VR|, the number of row vertices.
func (g *Graph) Rows() int { return g.a.RowsN }

// Cols returns |VC|, the number of column vertices.
func (g *Graph) Cols() int { return g.a.ColsN }

// Edges returns the number of edges.
func (g *Graph) Edges() int { return g.a.NNZ() }

// Degree returns the degree of row vertex i.
func (g *Graph) Degree(i int) int { return g.a.Degree(i) }

// AvgDegree returns the mean row degree.
func (g *Graph) AvgDegree() float64 { return g.a.AvgDegree() }

// DegreeVariance returns the row-degree variance (the load-imbalance
// indicator discussed with Table 3).
func (g *Graph) DegreeVariance() float64 { return g.a.DegreeVariance() }

// Neighbors returns the column neighbors of row i (shared slice; do not
// modify).
func (g *Graph) Neighbors(i int) []int32 { return g.a.Row(i) }

// HasEdge reports whether edge (i, j) is present.
func (g *Graph) HasEdge(i, j int) bool {
	row := g.a.Row(i)
	k := sort.Search(len(row), func(k int) bool { return row[k] >= int32(j) })
	return k < len(row) && row[k] == int32(j)
}

// CSR exposes the underlying matrix components (ptr, idx) for zero-copy
// interop. The returned slices must not be modified.
func (g *Graph) CSR() (rows, cols int, ptr []int, idx []int32) {
	return g.a.RowsN, g.a.ColsN, g.a.Ptr, g.a.Idx
}

func (g *Graph) transpose() *sparse.CSR {
	g.atOnce.Do(func() { g.at = g.a.Transpose() })
	return g.at
}

// orderBuildHook, when set, is invoked once per degree-order build — the
// test seam that proves the orders are built once per Graph.
var orderBuildHook atomic.Pointer[func()]

// degreeOrders returns the degree orders of the rows and of the columns
// that TwoSided's sampling walks (see sparse.DegreeOrder). They are built
// lazily and once per Graph, like the transpose, at 4 bytes per vertex,
// and are freed with the Graph.
func (g *Graph) degreeOrders() (rows, cols *sparse.DegreeOrder) {
	g.ordOnce.Do(func() {
		if hook := orderBuildHook.Load(); hook != nil {
			(*hook)()
		}
		g.rowOrd = sparse.NewDegreeOrder(g.a)
		g.colOrd = sparse.NewDegreeOrder(g.transpose())
	})
	return g.rowOrd, g.colOrd
}

// scaleCell is a Graph's scaling under one iteration count: empty until a
// compute publishes into it, read-only after. mu makes inline computes
// single-flight; see Graph.scaling.
type scaleCell struct {
	iters int
	mu    sync.Mutex
	sc    atomic.Pointer[Scaling]
}

// scaleCell returns g's scaling cell for the given iteration count,
// adding an empty one on first use.
func (g *Graph) scaleCell(iters int) *scaleCell {
	g.scMu.Lock()
	defer g.scMu.Unlock()
	for _, c := range g.scCells {
		if c.iters == iters {
			return c
		}
	}
	c := &scaleCell{iters: iters}
	g.scCells = append(g.scCells, c)
	return c
}

// --- exact matching and analysis -------------------------------------------

// MaximumMatching completes init to a maximum-cardinality matching, so
// its size is Sprank(); nil init means a cold solve. This is the
// jump-start of the paper's introduction: a heuristic matching passed as
// init leaves the exact solver only the vertices it left free. The engine
// is the one Spec{Refine: RefineExact} runs — Hopcroft–Karp, or the
// parallel graft engine on large instances — through the same refinement
// loop, from the same search side (the columns when the Graph has fewer
// non-isolated columns than rows), on all CPUs of the process-wide pool.
// init is copied, not modified; the result is owned by the caller.
func (g *Graph) MaximumMatching(init *Matching) *Matching {
	m := g.NewMatcher(nil)
	// A session without a cancellation hook never fails to refine.
	mt, _ := m.refine(m.resolveRefine(RefineExact), init)
	return mt
}

// Sprank returns the maximum matching cardinality (structural rank): the
// size of MaximumMatching(nil), cached. Concurrent first calls may each
// compute it; they agree, and later calls hit the cache.
func (g *Graph) Sprank() int {
	if v := g.sprank.Load(); v > 0 {
		return int(v - 1)
	}
	s := g.MaximumMatching(nil).Size
	g.sprank.Store(int64(s) + 1)
	return s
}

// SprankUpperBound returns a cheap structural upper bound on Sprank():
// the number of non-isolated rows or columns, whichever is smaller —
// an O(rows+cols) count, versus the exact run Sprank costs. It is always
// the structural bound, even when the exact Sprank is already cached:
// Spec.Target uses it as the denominator of the ensemble early-stop
// threshold, and a threshold that tightened whenever somebody happened to
// have called Sprank would make ensemble winners depend on unrelated
// history instead of on (Graph, Spec, Options) alone.
func (g *Graph) SprankUpperBound() int {
	rows, cols := g.liveCounts()
	return min(rows, cols)
}

// liveCounts returns the numbers of non-isolated rows and columns,
// counted once per Graph.
func (g *Graph) liveCounts() (rows, cols int) {
	g.liveOnce.Do(func() {
		g.liveRows = g.a.RowsN - g.a.EmptyRows()
		at := g.transpose()
		g.liveCols = at.RowsN - at.EmptyRows()
	})
	return g.liveRows, g.liveCols
}

// searchColumns reports whether the Graph's exact refinements search from
// the columns, on the transpose (see exact.SearchColumns).
func (g *Graph) searchColumns() bool { return exact.SearchColumns(g.liveCounts()) }

// MinimumVertexCover extracts a minimum vertex cover from a maximum
// matching via König's theorem. Its size always equals the maximum
// matching cardinality, which makes it an independent certificate of
// optimality (see CertifyMaximum).
func (g *Graph) MinimumVertexCover(mt *Matching) (rowInCover, colInCover []bool, size int) {
	return exact.MinVertexCover(g.a, mt)
}

// CertifyMaximum reports whether mt is provably a maximum matching of g,
// by checking validity and that the König cover built from it has exactly
// mt.Size vertices and covers every edge.
func (g *Graph) CertifyMaximum(mt *Matching) bool {
	return exact.Certify(g.a, mt)
}

// DulmageMendelsohn computes the coarse Dulmage–Mendelsohn decomposition
// from MaximumMatching(nil), which searches from the side with fewer
// doomed vertices. The coarse parts are the same for every maximum
// matching.
func (g *Graph) DulmageMendelsohn() *DMDecomposition {
	return dm.Decompose(g.a, g.transpose(), g.MaximumMatching(nil))
}

// FineDecomposition refines the square part of the coarse decomposition
// into fully indecomposable blocks; it returns the block id of each S-row
// (-1 outside S) and the number of blocks.
func (g *Graph) FineDecomposition(c *DMDecomposition) (blockOfRow []int32, blocks int) {
	return c.Fine(g.a)
}

// ErrInvalidMatching reports a matching that is inconsistent with the
// graph.
var ErrInvalidMatching = errors.New("bipartite: invalid matching")

// ValidateMatching checks that m is a valid matching of g: mutually
// consistent mates, every matched pair an actual edge, size correct.
func (g *Graph) ValidateMatching(m *Matching) error {
	if len(m.RowMate) != g.Rows() || len(m.ColMate) != g.Cols() {
		return fmt.Errorf("%w: shape mismatch", ErrInvalidMatching)
	}
	size := 0
	for i, j := range m.RowMate {
		if j == Unmatched {
			continue
		}
		if j < 0 || int(j) >= g.Cols() {
			return fmt.Errorf("%w: row %d matched to out-of-range column %d", ErrInvalidMatching, i, j)
		}
		if m.ColMate[j] != int32(i) {
			return fmt.Errorf("%w: row %d -> col %d but col %d -> row %d", ErrInvalidMatching, i, j, j, m.ColMate[j])
		}
		if !g.HasEdge(i, int(j)) {
			return fmt.Errorf("%w: matched pair (%d,%d) is not an edge", ErrInvalidMatching, i, j)
		}
		size++
	}
	for j, i := range m.ColMate {
		if i != Unmatched && m.RowMate[i] != int32(j) {
			return fmt.Errorf("%w: col %d -> row %d but row %d -> col %d", ErrInvalidMatching, j, i, i, m.RowMate[i])
		}
	}
	if size != m.Size {
		return fmt.Errorf("%w: size %d but %d matched rows", ErrInvalidMatching, m.Size, size)
	}
	return nil
}

// Quality returns |m| / sprank(g), the metric reported throughout the
// paper's evaluation.
func (g *Graph) Quality(m *Matching) float64 {
	return exact.Quality(m.Size, g.Sprank())
}
