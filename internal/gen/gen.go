// Package gen generates the matrix/bipartite-graph workloads used by the
// experiments. It covers the three synthetic classes defined in the paper —
// the Fig. 2 "bad for Karp–Sipser" family, Erdős–Rényi sprand matrices and
// the all-ones matrix of the 1-out conjecture — plus structural analogs for
// the twelve SuiteSparse instances of Table 3 (grids, road-like meshes,
// power-law/skewed matrices, banded matrices and KKT saddle-point
// patterns), which cannot be shipped with an offline reproduction.
//
// All generators are deterministic for a fixed seed and produce validated
// pattern matrices with sorted, duplicate-free rows.
package gen

import (
	"math"

	"repro/internal/sparse"
	"repro/internal/xrand"
)

// fromCOO assembles each generator's entries. It is a variable so that
// tests can hold the assembly to a reference on every generator's own
// entries.
var fromCOO = sparse.FromCOO

// Full returns the n×n all-ones matrix. Its scaled form is s_ij = 1/n and
// the 1-out graph drawn from it is the random 1-out bipartite graph of
// Walkup used in Conjecture 1.
func Full(n int) *sparse.CSR {
	a := &sparse.CSR{RowsN: n, ColsN: n}
	a.Ptr = make([]int, n+1)
	a.Idx = make([]int32, n*n)
	for i := 0; i < n; i++ {
		a.Ptr[i+1] = (i + 1) * n
		for j := 0; j < n; j++ {
			a.Idx[i*n+j] = int32(j)
		}
	}
	return a
}

// Identity returns the n×n identity pattern.
func Identity(n int) *sparse.CSR {
	a := &sparse.CSR{RowsN: n, ColsN: n}
	a.Ptr = make([]int, n+1)
	a.Idx = make([]int32, n)
	for i := 0; i < n; i++ {
		a.Ptr[i+1] = i + 1
		a.Idx[i] = int32(i)
	}
	return a
}

// ER returns an Erdős–Rényi pattern with rows×cols shape and approximately
// nnz nonzeros placed uniformly at random (duplicates are removed, like
// Matlab's sprand used in the paper's §4.1.3).
func ER(rows, cols, nnz int, seed uint64) *sparse.CSR {
	rng := xrand.New(seed)
	entries := make([]sparse.Coord, 0, nnz)
	for k := 0; k < nnz; k++ {
		entries = append(entries, sparse.Coord{
			I: int32(rng.Intn(rows)),
			J: int32(rng.Intn(cols)),
		})
	}
	a, err := fromCOO(rows, cols, entries, false)
	if err != nil {
		panic("gen: ER produced invalid matrix: " + err.Error())
	}
	return a
}

// ERAvgDeg returns an Erdős–Rényi pattern with average row degree d, the
// parameterization used by Table 2 (d ∈ {2,3,4,5}).
func ERAvgDeg(rows, cols int, d float64, seed uint64) *sparse.CSR {
	return ER(rows, cols, int(math.Round(d*float64(rows))), seed)
}

// SymmetricER returns the symmetric pattern of an undirected Erdős–Rényi
// graph on n vertices with average degree about avgDeg: avgDeg·n/2
// uniform vertex pairs, each stored in both directions, with self pairs
// dropped and duplicates removed.
func SymmetricER(n int, avgDeg float64, seed uint64) *sparse.CSR {
	rng := xrand.New(seed)
	m := int(avgDeg * float64(n) / 2)
	entries := make([]sparse.Coord, 0, 2*m)
	for k := 0; k < m; k++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		entries = append(entries, sparse.Coord{I: u, J: v}, sparse.Coord{I: v, J: u})
	}
	a, err := fromCOO(n, n, entries, false)
	if err != nil {
		panic("gen: SymmetricER produced invalid matrix: " + err.Error())
	}
	return a
}

// BadKS constructs the Fig. 2 family that defeats the classic Karp–Sipser
// heuristic. n must be even and k <= n/2. Layout (h = n/2):
//
//   - the R1×C1 block (rows 0..h-1 × cols 0..h-1) is full;
//   - the last k rows of R1 and last k columns of C1 are entirely full;
//   - R1×C2 and R2×C1 carry nonzero diagonals, which together form a
//     perfect matching;
//   - R2×C2 is empty.
//
// For k > 1 the graph has no degree-one vertex, so Karp–Sipser immediately
// enters its random phase and is drawn into the full R1×C1 block, whose
// entries can never be in a perfect matching.
func BadKS(n, k int) *sparse.CSR {
	if n%2 != 0 {
		panic("gen: BadKS needs even n")
	}
	h := n / 2
	if k > h {
		panic("gen: BadKS needs k <= n/2")
	}
	est := h*h + 2*k*n + 2*h
	entries := make([]sparse.Coord, 0, est)
	for i := 0; i < h; i++ {
		for j := 0; j < h; j++ {
			entries = append(entries, sparse.Coord{I: int32(i), J: int32(j)})
		}
	}
	for i := h - k; i < h; i++ { // last k rows of R1 are full
		for j := 0; j < n; j++ {
			entries = append(entries, sparse.Coord{I: int32(i), J: int32(j)})
		}
	}
	for j := h - k; j < h; j++ { // last k columns of C1 are full
		for i := 0; i < n; i++ {
			entries = append(entries, sparse.Coord{I: int32(i), J: int32(j)})
		}
	}
	for i := 0; i < h; i++ { // R1×C2 diagonal
		entries = append(entries, sparse.Coord{I: int32(i), J: int32(h + i)})
	}
	for i := 0; i < h; i++ { // R2×C1 diagonal
		entries = append(entries, sparse.Coord{I: int32(h + i), J: int32(i)})
	}
	a, err := fromCOO(n, n, entries, false)
	if err != nil {
		panic("gen: BadKS produced invalid matrix: " + err.Error())
	}
	return a
}

// Grid2D returns the 5-point stencil pattern of an nx×ny grid (the matrix
// of a 2D Laplacian): symmetric, average degree just under 5, full sprank.
// Analog class for venturiLevel3/hugebubbles-style meshes.
func Grid2D(nx, ny int) *sparse.CSR {
	n := nx * ny
	entries := make([]sparse.Coord, 0, 5*n)
	id := func(x, y int) int32 { return int32(x*ny + y) }
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			v := id(x, y)
			entries = append(entries, sparse.Coord{I: v, J: v})
			if x > 0 {
				entries = append(entries, sparse.Coord{I: v, J: id(x-1, y)})
			}
			if x < nx-1 {
				entries = append(entries, sparse.Coord{I: v, J: id(x+1, y)})
			}
			if y > 0 {
				entries = append(entries, sparse.Coord{I: v, J: id(x, y-1)})
			}
			if y < ny-1 {
				entries = append(entries, sparse.Coord{I: v, J: id(x, y+1)})
			}
		}
	}
	a, err := fromCOO(n, n, entries, false)
	if err != nil {
		panic("gen: Grid2D produced invalid matrix: " + err.Error())
	}
	return a
}

// Grid3D returns the stencil pattern of an nx×ny×nz grid. With full27 the
// stencil is the dense 3×3×3 neighborhood (average degree ≈ 27, an analog
// for nlpkkt240/channel-class matrices); otherwise the 7-point stencil
// (atmosmodl-class).
func Grid3D(nx, ny, nz int, full27 bool) *sparse.CSR {
	n := nx * ny * nz
	cap := 7 * n
	if full27 {
		cap = 27 * n
	}
	entries := make([]sparse.Coord, 0, cap)
	id := func(x, y, z int) int32 { return int32((x*ny+y)*nz + z) }
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			for z := 0; z < nz; z++ {
				v := id(x, y, z)
				if full27 {
					for dx := -1; dx <= 1; dx++ {
						for dy := -1; dy <= 1; dy++ {
							for dz := -1; dz <= 1; dz++ {
								xx, yy, zz := x+dx, y+dy, z+dz
								if xx >= 0 && xx < nx && yy >= 0 && yy < ny && zz >= 0 && zz < nz {
									entries = append(entries, sparse.Coord{I: v, J: id(xx, yy, zz)})
								}
							}
						}
					}
					continue
				}
				entries = append(entries, sparse.Coord{I: v, J: v})
				if x > 0 {
					entries = append(entries, sparse.Coord{I: v, J: id(x-1, y, z)})
				}
				if x < nx-1 {
					entries = append(entries, sparse.Coord{I: v, J: id(x+1, y, z)})
				}
				if y > 0 {
					entries = append(entries, sparse.Coord{I: v, J: id(x, y-1, z)})
				}
				if y < ny-1 {
					entries = append(entries, sparse.Coord{I: v, J: id(x, y+1, z)})
				}
				if z > 0 {
					entries = append(entries, sparse.Coord{I: v, J: id(x, y, z-1)})
				}
				if z < nz-1 {
					entries = append(entries, sparse.Coord{I: v, J: id(x, y, z+1)})
				}
			}
		}
	}
	a, err := fromCOO(n, n, entries, false)
	if err != nil {
		panic("gen: Grid3D produced invalid matrix: " + err.Error())
	}
	return a
}

// KOut returns Walkup's random k-out bipartite graph: every row chooses k
// distinct random columns and every column chooses k distinct random rows;
// the union of the choices is the edge set. Walkup (1980) proved that
// 1-out graphs have maximum matchings of ≈ 0.866n (the constant behind
// Conjecture 1) while 2-out graphs have perfect matchings almost surely.
func KOut(n, k int, seed uint64) *sparse.CSR {
	rng := xrand.New(seed)
	entries := make([]sparse.Coord, 0, 2*k*n)
	pick := func() []int32 {
		if k >= n {
			all := make([]int32, n)
			for i := range all {
				all[i] = int32(i)
			}
			return all
		}
		seen := make(map[int32]bool, k)
		out := make([]int32, 0, k)
		for len(out) < k {
			v := int32(rng.Intn(n))
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return out
	}
	for i := 0; i < n; i++ {
		for _, j := range pick() {
			entries = append(entries, sparse.Coord{I: int32(i), J: j})
		}
	}
	for j := 0; j < n; j++ {
		for _, i := range pick() {
			entries = append(entries, sparse.Coord{I: i, J: int32(j)})
		}
	}
	a, err := fromCOO(n, n, entries, false)
	if err != nil {
		panic("gen: KOut produced invalid matrix: " + err.Error())
	}
	return a
}

// Mesh2D returns the adjacency pattern of an nx×ny grid graph without
// self loops: average degree just under 4, symmetric, and with a perfect
// matching when nx*ny is even (venturiLevel3/hugebubbles-class meshes).
func Mesh2D(nx, ny int) *sparse.CSR {
	n := nx * ny
	entries := make([]sparse.Coord, 0, 4*n)
	id := func(x, y int) int32 { return int32(x*ny + y) }
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			v := id(x, y)
			if x > 0 {
				entries = append(entries, sparse.Coord{I: v, J: id(x-1, y)})
			}
			if x < nx-1 {
				entries = append(entries, sparse.Coord{I: v, J: id(x+1, y)})
			}
			if y > 0 {
				entries = append(entries, sparse.Coord{I: v, J: id(x, y-1)})
			}
			if y < ny-1 {
				entries = append(entries, sparse.Coord{I: v, J: id(x, y+1)})
			}
		}
	}
	a, err := fromCOO(n, n, entries, false)
	if err != nil {
		panic("gen: Mesh2D produced invalid matrix: " + err.Error())
	}
	return a
}

// RoadLike returns the symmetric adjacency pattern of a thinned 2D grid
// graph with average degree avgDeg (≈2.1 for a europe_osm analog, ≈2.4 for
// road_usa). Thinning leaves isolated vertices and odd components, so the
// pattern is slightly sprank-deficient exactly like the road networks in
// Table 3. No self loops.
func RoadLike(n int, avgDeg float64, seed uint64) *sparse.CSR {
	side := int(math.Ceil(math.Sqrt(float64(n))))
	nn := side * side
	rng := xrand.New(seed)
	p := avgDeg / 4.0 // interior grid vertices have 4 incident edges
	if p > 1 {
		p = 1
	}
	entries := make([]sparse.Coord, 0, int(avgDeg*float64(nn))+16)
	id := func(x, y int) int32 { return int32(x*side + y) }
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			v := id(x, y)
			if x < side-1 && rng.Float64() < p {
				u := id(x+1, y)
				entries = append(entries, sparse.Coord{I: v, J: u}, sparse.Coord{I: u, J: v})
			}
			if y < side-1 && rng.Float64() < p {
				u := id(x, y+1)
				entries = append(entries, sparse.Coord{I: v, J: u}, sparse.Coord{I: u, J: v})
			}
		}
	}
	a, err := fromCOO(nn, nn, entries, false)
	if err != nil {
		panic("gen: RoadLike produced invalid matrix: " + err.Error())
	}
	return a
}

// PowerLaw returns an n×n pattern whose row degrees follow a clipped
// Pareto(dmin, alpha) distribution with uniformly random column targets,
// plus the diagonal (so the matrix has support). Small alpha gives the
// extreme degree variance of torso1; larger alpha the milder skew of
// audikw_1.
func PowerLaw(n int, dmin float64, alpha float64, maxDeg int, seed uint64) *sparse.CSR {
	rng := xrand.New(seed)
	if maxDeg <= 0 || maxDeg > n {
		maxDeg = n
	}
	entries := make([]sparse.Coord, 0, n*int(dmin+2))
	for i := 0; i < n; i++ {
		deg := int(rng.Pareto(dmin, alpha))
		if deg > maxDeg {
			deg = maxDeg
		}
		if deg < 1 {
			deg = 1
		}
		entries = append(entries, sparse.Coord{I: int32(i), J: int32(i)})
		for k := 0; k < deg; k++ {
			entries = append(entries, sparse.Coord{I: int32(i), J: int32(rng.Intn(n))})
		}
	}
	a, err := fromCOO(n, n, entries, false)
	if err != nil {
		panic("gen: PowerLaw produced invalid matrix: " + err.Error())
	}
	return a
}

// Band returns an n×n banded pattern with the given diagonal offsets
// (offset 0 is the main diagonal). A Hamrle3-class analog is
// Band(n, 0, -1, 1, -w, w) for some wide w.
func Band(n int, offsets ...int) *sparse.CSR {
	entries := make([]sparse.Coord, 0, n*len(offsets))
	for _, off := range offsets {
		for i := 0; i < n; i++ {
			j := i + off
			if j >= 0 && j < n {
				entries = append(entries, sparse.Coord{I: int32(i), J: int32(j)})
			}
		}
	}
	a, err := fromCOO(n, n, entries, false)
	if err != nil {
		panic("gen: Band produced invalid matrix: " + err.Error())
	}
	return a
}

// FullyIndecomposable returns an n×n matrix with total support: the
// identity plus the cyclic shift (whose union is a single alternating
// Hamiltonian structure, hence fully indecomposable) plus `extras` random
// entries per row to vary the density. It is the workload standing in for
// the paper's 743 fully indecomposable SuiteSparse matrices (§4.1.1).
//
// The random extras are not guaranteed to lie on a perfect matching, so
// total support can be mildly violated by them; Sinkhorn–Knopp then drives
// exactly those entries toward zero, which is the behaviour §3.3 describes.
func FullyIndecomposable(n, extras int, seed uint64) *sparse.CSR {
	rng := xrand.New(seed)
	entries := make([]sparse.Coord, 0, n*(2+extras))
	for i := 0; i < n; i++ {
		entries = append(entries, sparse.Coord{I: int32(i), J: int32(i)})
		entries = append(entries, sparse.Coord{I: int32(i), J: int32((i + 1) % n)})
		for k := 0; k < extras; k++ {
			entries = append(entries, sparse.Coord{I: int32(i), J: int32(rng.Intn(n))})
		}
	}
	a, err := fromCOO(n, n, entries, false)
	if err != nil {
		panic("gen: FullyIndecomposable produced invalid matrix: " + err.Error())
	}
	return a
}

// KKTLike returns the symmetric saddle-point pattern
//
//	[ A  B ]
//	[ Bᵀ 0 ]
//
// with A an nA×nA banded+random sparse block and B an nA×nB sparse coupling
// block — the structure of kkt_power in Table 3.
func KKTLike(nA, nB int, extra int, seed uint64) *sparse.CSR {
	rng := xrand.New(seed)
	n := nA + nB
	entries := make([]sparse.Coord, 0, nA*(3+extra)+4*nB)
	for i := 0; i < nA; i++ {
		entries = append(entries, sparse.Coord{I: int32(i), J: int32(i)})
		if i+1 < nA {
			entries = append(entries, sparse.Coord{I: int32(i), J: int32(i + 1)})
			entries = append(entries, sparse.Coord{I: int32(i + 1), J: int32(i)})
		}
		for k := 0; k < extra; k++ {
			j := rng.Intn(nA)
			entries = append(entries, sparse.Coord{I: int32(i), J: int32(j)})
			entries = append(entries, sparse.Coord{I: int32(j), J: int32(i)})
		}
	}
	for j := 0; j < nB; j++ {
		// each constraint couples to a couple of primal variables
		deg := 1 + rng.Intn(3)
		for k := 0; k < deg; k++ {
			i := rng.Intn(nA)
			entries = append(entries, sparse.Coord{I: int32(i), J: int32(nA + j)})
			entries = append(entries, sparse.Coord{I: int32(nA + j), J: int32(i)})
		}
	}
	a, err := fromCOO(n, n, entries, false)
	if err != nil {
		panic("gen: KKTLike produced invalid matrix: " + err.Error())
	}
	return a
}

// RankDeficient returns an n×n pattern whose nonzeros all fall in the
// first n−def columns, so sprank(A) ≤ n−def and at least def rows stay
// unmatched in every maximum matching. With avgDeg well above 1 the
// deficiency is exactly def w.h.p., which makes the family the standard
// stress test for exact refinement: every heuristic leaves many exposed
// rows whose augmenting searches jointly sweep most of the graph before
// proving them unmatchable.
func RankDeficient(n, def int, avgDeg float64, seed uint64) *sparse.CSR {
	if def < 0 || def >= n {
		panic("gen: RankDeficient needs 0 <= def < n")
	}
	rng := xrand.New(seed)
	cols := n - def
	entries := make([]sparse.Coord, 0, int(float64(n)*avgDeg))
	for i := 0; i < n; i++ {
		d := 1 + rng.Intn(int(2*avgDeg))
		for k := 0; k < d; k++ {
			entries = append(entries, sparse.Coord{I: int32(i), J: int32(rng.Intn(cols))})
		}
	}
	a, err := fromCOO(n, n, entries, false)
	if err != nil {
		panic("gen: RankDeficient produced invalid matrix: " + err.Error())
	}
	return a
}

// LongThinPath returns the n×n two-diagonal pattern (row i ~ cols i and
// i+1): the whole graph is one alternating chain, so a warm start that
// matches rows off-diagonal forces augmenting paths of length Θ(n) — the
// worst case for search engines that pay per path rather than per phase.
func LongThinPath(n int) *sparse.CSR {
	entries := make([]sparse.Coord, 0, 2*n)
	for i := 0; i < n; i++ {
		entries = append(entries, sparse.Coord{I: int32(i), J: int32(i)})
		if i+1 < n {
			entries = append(entries, sparse.Coord{I: int32(i), J: int32(i + 1)})
		}
	}
	a, err := fromCOO(n, n, entries, false)
	if err != nil {
		panic("gen: LongThinPath produced invalid matrix: " + err.Error())
	}
	return a
}

// DirectSum returns the block-diagonal pattern with a above b: a's rows
// and columns first, then b's, shifted past them. Values are dropped.
// RankDeficient beside its own transpose is the family whose doomed
// vertices sit on both sides, so no search side avoids them.
func DirectSum(a, b *sparse.CSR) *sparse.CSR {
	ptr := append([]int(nil), a.Ptr...)
	for _, p := range b.Ptr[1:] {
		ptr = append(ptr, a.NNZ()+p)
	}
	idx := append([]int32(nil), a.Idx...)
	for _, j := range b.Idx {
		idx = append(idx, int32(a.ColsN)+j)
	}
	c, err := sparse.New(a.RowsN+b.RowsN, a.ColsN+b.ColsN, ptr, idx, nil)
	if err != nil {
		panic("gen: DirectSum produced invalid matrix: " + err.Error())
	}
	return c
}

// SkewedDegree returns a rows×cols pattern with skewed degree mass on
// both sides: column picks concentrate on the low indices (u^skew
// mapping, so column j's expected degree falls off polynomially) and a
// small head of hub rows carries a large share of the edges. It is the
// load-imbalance adversary for parallel matching kernels — a few frontier
// vertices hold most of the work.
func SkewedDegree(rows, cols int, avgDeg, skew float64, seed uint64) *sparse.CSR {
	rng := xrand.New(seed)
	entries := make([]sparse.Coord, 0, int(float64(rows)*avgDeg))
	hubs := rows / 64
	if hubs < 1 {
		hubs = 1
	}
	for i := 0; i < rows; i++ {
		d := 1 + rng.Intn(int(2*avgDeg))
		if i < hubs {
			d = 16 * int(avgDeg)
			if d > cols {
				d = cols
			}
		}
		for k := 0; k < d; k++ {
			j := int(math.Pow(rng.Float64Open(), skew) * float64(cols))
			if j >= cols {
				j = cols - 1
			}
			entries = append(entries, sparse.Coord{I: int32(i), J: int32(j)})
		}
	}
	a, err := fromCOO(rows, cols, entries, false)
	if err != nil {
		panic("gen: SkewedDegree produced invalid matrix: " + err.Error())
	}
	return a
}
