// Package exact implements exact maximum-cardinality bipartite matching
// algorithms. The heuristics are measured against these: the quality of a
// matching M is |M| / sprank(A), where sprank is the maximum matching
// cardinality computed here.
//
// Four algorithms are provided: Hopcroft–Karp (O(√n·τ) worst case), an
// MC21-style single-path augmenting DFS with cheap-assignment lookahead
// (the classic "maximum transversal" algorithm), the push-relabel /
// auction scheme and the parallel MS-BFS-Graft engine. All accept a
// warm-start matching, which is exactly how the paper motivates cheap
// heuristics: as jump-start routines for exact solvers. Hopcroft–Karp,
// push-relabel and graft also come as incremental refiners (HKRefiner,
// PRRefiner, GraftRefiner) on a reusable Workspace.
//
// Every algorithm searches from the exposed rows of the matrix it is
// given and knows nothing of orientation. A caller that searches from the
// columns runs it on the transpose, with the warm start and the result
// passed through Mirror; SearchColumns is the rule that picks the side.
package exact

import (
	"math"

	"repro/internal/sparse"
)

// NIL marks an unmatched vertex in match arrays.
const NIL = int32(-1)

const inf = int32(math.MaxInt32)

// Matching holds a row->col and col->row matching pair.
type Matching struct {
	RowMate []int32 // RowMate[i] = matched column of row i, or NIL
	ColMate []int32 // ColMate[j] = matched row of column j, or NIL
	Size    int
}

// NewMatching returns an empty matching for an n×m matrix.
func NewMatching(n, m int) *Matching {
	rm := make([]int32, n)
	cm := make([]int32, m)
	for i := range rm {
		rm[i] = NIL
	}
	for j := range cm {
		cm[j] = NIL
	}
	return &Matching{RowMate: rm, ColMate: cm}
}

// FromRowMate reconstructs a Matching (including ColMate and Size) from a
// row->col array; entries out of range are treated as unmatched.
func FromRowMate(rowMate []int32, m int) *Matching {
	mt := NewMatching(len(rowMate), m)
	for i, j := range rowMate {
		if j >= 0 && int(j) < m {
			mt.RowMate[i] = j
			mt.ColMate[j] = int32(i)
			mt.Size++
		}
	}
	return mt
}

// HKRefiner is the incremental form of Hopcroft–Karp: a warm-start
// matching plus the BFS/DFS workspaces, advanced one phase at a time. Each
// Phase augments along a maximal set of vertex-disjoint shortest
// augmenting paths, so the held matching grows monotonically and is a
// valid matching between phases — callers can interleave phases with other
// work (the ensemble engine interleaves them with candidate arrivals) and
// stop as soon as the size crosses a bound, or run to the maximum.
type HKRefiner struct {
	a  *sparse.CSR
	mt *Matching

	dist  []int32
	queue []int32
	// Iterative DFS state: stack of rows and per-row arc cursors.
	arc   []int
	stack []int32

	done bool
}

// NewHKRefiner prepares an incremental Hopcroft–Karp run on a, warm-started
// from init (nil means the empty matching; init is copied, not mutated, and
// not retained).
func NewHKRefiner(a *sparse.CSR, init *Matching) *HKRefiner {
	return NewHKRefinerWs(a, init, &Workspace{})
}

// Matching returns the refiner's current matching. It is owned by the
// refiner until Phase can no longer improve it; callers that mutate it must
// not call Phase again.
func (r *HKRefiner) Matching() *Matching { return r.mt }

// Size returns the current matching cardinality.
func (r *HKRefiner) Size() int { return r.mt.Size }

// Done reports whether the matching is provably maximum (a phase found no
// augmenting path).
func (r *HKRefiner) Done() bool { return r.done }

// Phase runs one Hopcroft–Karp phase — a BFS layering followed by a
// maximal wave of vertex-disjoint shortest augmenting paths — and reports
// whether the matching may still be improvable. A false return means the
// matching is maximum; the refiner stays in that state.
func (r *HKRefiner) Phase() bool {
	if r.done {
		return false
	}
	a, mt, n := r.a, r.mt, r.a.RowsN
	dist := r.dist
	// BFS phase: layer rows by alternating distance from free rows.
	queue := r.queue[:0]
	for i := 0; i < n; i++ {
		if mt.RowMate[i] == NIL {
			dist[i] = 0
			queue = append(queue, int32(i))
		} else {
			dist[i] = inf
		}
	}
	found := false
	for qh := 0; qh < len(queue); qh++ {
		i := queue[qh]
		for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
			j := a.Idx[p]
			i2 := mt.ColMate[j]
			if i2 == NIL {
				found = true
				continue
			}
			if dist[i2] == inf {
				dist[i2] = dist[i] + 1
				queue = append(queue, i2)
			}
		}
	}
	r.queue = queue
	if !found {
		r.done = true
		return false
	}
	// DFS phase: find a maximal set of vertex-disjoint shortest
	// augmenting paths along the layering.
	arc := r.arc
	for i := 0; i < n; i++ {
		arc[i] = a.Ptr[i]
	}
	stack := r.stack
	for s := 0; s < n; s++ {
		if mt.RowMate[s] != NIL || dist[s] != 0 {
			continue
		}
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			advanced := false
			for arc[i] < a.Ptr[i+1] {
				p := arc[i]
				arc[i]++
				j := a.Idx[p]
				i2 := mt.ColMate[j]
				if i2 == NIL {
					// Augment along the stack; mark the rows used so
					// paths in this phase stay vertex-disjoint.
					for k := len(stack) - 1; k >= 0; k-- {
						row := stack[k]
						pj := mt.RowMate[row]
						mt.RowMate[row] = j
						mt.ColMate[j] = row
						dist[row] = inf
						j = pj
					}
					mt.Size++
					stack = stack[:0]
					advanced = true
					break
				}
				if dist[i2] == dist[i]+1 {
					stack = append(stack, i2)
					advanced = true
					break
				}
			}
			if !advanced {
				dist[i] = inf // dead end: prune for this phase
				stack = stack[:len(stack)-1]
			}
		}
	}
	r.stack = stack
	return true
}

// Run advances the refiner to the maximum matching and returns it.
func (r *HKRefiner) Run() *Matching {
	for r.Phase() {
	}
	return r.mt
}

// HopcroftKarp computes a maximum matching of the bipartite graph given by
// a. init may be nil or a valid warm-start matching (it is copied, not
// mutated). The returned matching is maximum regardless of the warm start;
// a good warm start only reduces the number of phases. It is the one-shot
// form of HKRefiner.
func HopcroftKarp(a *sparse.CSR, init *Matching) *Matching {
	return NewHKRefiner(a, init).Run()
}

// Sprank returns the maximum matching cardinality (structural rank) of a.
func Sprank(a *sparse.CSR) int {
	return HopcroftKarp(a, nil).Size
}

// Quality returns |size| / sprank as used throughout the experiments; it
// returns 1 for an empty matrix.
func Quality(size, sprank int) float64 {
	if sprank == 0 {
		return 1
	}
	return float64(size) / float64(sprank)
}
