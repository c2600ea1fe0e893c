// Package exact implements exact maximum-cardinality bipartite matching
// algorithms. The heuristics are measured against these: the quality of a
// matching M is |M| / sprank(A), where sprank is the maximum matching
// cardinality computed here.
//
// Four algorithms are provided: Hopcroft–Karp, an MC21-style single-path
// augmenting DFS with cheap-assignment lookahead (the classic "maximum
// transversal" algorithm), the push-relabel / auction scheme and the
// parallel MS-BFS-Graft engine. All accept a warm-start matching, which is
// exactly how the paper motivates cheap heuristics: as jump-start routines
// for exact solvers. Hopcroft–Karp, push-relabel and graft also come as
// incremental refiners (HKRefiner, PRRefiner, GraftRefiner) on a reusable
// Workspace.
//
// A Hopcroft–Karp phase's DFS follows paths of any length in its BFS
// layering, not only the shortest ones, and its BFS stops early only when
// free columns are plentiful (HKRefiner.Phase), so the textbook O(√n·τ)
// bound is not claimed here. What holds is that each phase is O(τ) for τ
// edges and every phase but the last augments; the last proves the
// matching maximum.
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
// Phase augments along a maximal set of vertex-disjoint augmenting paths
// in its BFS layering, so the held matching grows monotonically and is a
// valid matching between phases — callers can interleave phases with other
// work (the ensemble engine interleaves them with candidate arrivals) and
// stop as soon as the size crosses a bound, or run to the maximum.
//
// The refiner takes the graph's number of non-isolated columns at
// construction (NewHKRefinerLive; NewHKRefinerWs and NewHKRefiner count
// them) and sweeps only the rows itself, so a caller that keeps the
// count, as a Graph does, refines without a pass over the edges.
type HKRefiner struct {
	a  *sparse.CSR
	mt *Matching

	free  []int32 // exposed non-isolated rows, compacted after every phase
	dist  []int32 // BFS layer of each row; inf outside the current layering
	queue []int32 // the rows the current phase's BFS layered
	arc   []int   // per-row DFS cursors, set for the layered rows
	stack []int32

	spare int // non-isolated columns minus non-isolated rows

	done bool
}

// NewHKRefiner prepares an incremental Hopcroft–Karp run on a, warm-started
// from init (nil means the empty matching; init is copied, not mutated, and
// not retained). It counts a's non-isolated columns; see NewHKRefinerWs.
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

// Phase runs one Hopcroft–Karp phase — a BFS that layers the rows by
// alternating distance from the exposed rows, then a DFS along the
// layering that augments a maximal set of vertex-disjoint paths — and
// reports whether the matching may still be improvable.
//
// Where the BFS stops depends on how many free columns there are. The
// free non-isolated columns outnumber the exposed non-isolated rows by a
// constant of the graph, its spare columns: non-isolated columns minus
// non-isolated rows. With at least as many spare columns as exposed rows,
// as on the column side of a rank-deficient graph, at least half the free
// columns can never be matched and the exposed rows have free columns
// close by; the BFS then stops at the first layer that reaches a free
// column, which is Hopcroft–Karp's own rule, instead of walking all the
// graph it reaches. Otherwise, as on a graph with a perfect matching,
// free columns are scarce and augmenting paths long: the BFS layers every
// row the exposed rows reach, so one DFS can follow a path of any length,
// where stopping at the first free layer would leave the long paths to
// dozens of later phases on a long path or a mesh. The spare columns are
// known from construction, so the choice costs a comparison per phase.
//
// A false return means the BFS reached no free column, which proves the
// matching maximum; the refiner stays in that state.
func (r *HKRefiner) Phase() bool {
	if r.done {
		return false
	}
	early := len(r.free) > 0 && r.spare >= len(r.free)
	if !r.layer(early) {
		r.done = true
		return false
	}
	r.augmentLayered(early)
	free := r.free[:0]
	for _, i := range r.free {
		if r.mt.RowMate[i] == NIL {
			free = append(free, i)
		}
	}
	r.free = free
	return true
}

// layer runs the phase's BFS from the exposed rows and reports whether it
// met a free column. When early is set it stops at the first one: every
// row of that column's layer and of the layers before it was queued
// before the layer's first row was scanned, so the stop loses no shortest
// path, and the rows already queued for the next layer are dropped again.
// It then points the DFS cursor of every layered row at its first arc:
// row by row after a stopped BFS, whose layering is small, and in one
// sequential sweep after a full one, which usually covers most rows.
func (r *HKRefiner) layer(early bool) bool {
	a, mt, dist, arc := r.a, r.mt, r.dist, r.arc
	queue := r.queue[:0]
	for _, i := range r.free {
		dist[i] = 0
		queue = append(queue, i)
	}
	limit := inf
	for qh := 0; qh < len(queue); qh++ {
		i := queue[qh]
		for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
			i2 := mt.ColMate[a.Idx[p]]
			if i2 == NIL {
				limit = min(limit, dist[i])
				if early {
					break
				}
				continue
			}
			if dist[i2] == inf {
				dist[i2] = dist[i] + 1
				queue = append(queue, i2)
			}
		}
		if early && limit != inf {
			for dist[queue[len(queue)-1]] > limit {
				dist[queue[len(queue)-1]] = inf
				queue = queue[:len(queue)-1]
			}
			break
		}
	}
	r.queue = queue
	if early {
		for _, i := range queue {
			arc[i] = a.Ptr[i]
		}
	} else {
		copy(arc, a.Ptr)
	}
	return limit != inf
}

// augmentLayered runs a DFS from every exposed row along the layering,
// stepping one layer per row, and augments at the first free column it
// meets. Rows on an augmenting path and dead ends leave the layering, so
// the paths stay vertex-disjoint and every arc is followed at most once.
// It resets the layering for the next phase, row by row after a stopped
// BFS and in one sweep after a full one, as layer set the cursors.
func (r *HKRefiner) augmentLayered(early bool) {
	a, mt, dist, arc := r.a, r.mt, r.dist, r.arc
	stack := r.stack
	for _, s := range r.free {
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			advanced := false
			for arc[i] < a.Ptr[i+1] {
				j := a.Idx[arc[i]]
				arc[i]++
				i2 := mt.ColMate[j]
				if i2 == NIL {
					r.augment(stack, j)
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
	if early {
		for _, i := range r.queue {
			dist[i] = inf
		}
	} else {
		for i := range dist {
			dist[i] = inf
		}
	}
}

// augment flips the alternating path that runs from stack[0], an exposed
// row, through each stacked row's mate to the free column j, and takes
// the path's rows out of the layering.
func (r *HKRefiner) augment(stack []int32, j int32) {
	mt := r.mt
	for k := len(stack) - 1; k >= 0; k-- {
		row := stack[k]
		pj := mt.RowMate[row]
		mt.RowMate[row] = j
		mt.ColMate[j] = row
		r.dist[row] = inf
		j = pj
	}
	mt.Size++
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
