package dyngraph

import (
	"math"

	"repro/internal/exact"
)

const inf = int32(math.MaxInt32)

// Repairer augments a matching over the mutable adjacency — the repair
// primitive of dynamic sessions. It offers two granularities:
//
//   - AugmentRow/AugmentCol run one single-source augmenting DFS (Kuhn's
//     algorithm) from an exposed vertex — the targeted repair of
//     heuristic sessions, which re-augments only from the endpoints a
//     mutation batch freed or exposed.
//   - Complete runs Hopcroft–Karp phases (a BFS layering plus a maximal
//     wave of vertex-disjoint shortest augmenting paths) until the
//     matching is provably maximum — the repair of exact sessions, warm:
//     after a batch of b deletions at most b augmenting paths exist, so
//     the phase count is bounded by the batch, not the graph.
//
// All searches are sequential and scan adjacencies in sorted order, so a
// repair is a pure function of (adjacency, matching, seed vertex) — the
// determinism the differential fuzz oracle gates across pool widths.
// The workspaces are reused across calls; a Repairer is bound to one
// Graph and is not safe for concurrent use.
type Repairer struct {
	g *Graph

	// Kuhn DFS state: stack of vertices, per-vertex arc cursors, and
	// epoch-stamped visited marks (no clearing between calls).
	stack []int32
	arcR  []int // per-row cursor into rows[i]
	arcC  []int // per-col cursor into cols[j]
	seenR []int32
	seenC []int32
	epoch int32

	// Hopcroft–Karp phase state.
	dist  []int32
	queue []int32
}

// NewRepairer prepares a repair engine over g.
func NewRepairer(g *Graph) *Repairer {
	n, m := g.Rows(), g.Cols()
	return &Repairer{
		g:     g,
		arcR:  make([]int, n),
		arcC:  make([]int, m),
		seenR: make([]int32, n),
		seenC: make([]int32, m),
		dist:  make([]int32, n),
	}
}

func (r *Repairer) nextEpoch() {
	r.epoch++
	if r.epoch == math.MaxInt32 {
		for i := range r.seenR {
			r.seenR[i] = 0
		}
		for j := range r.seenC {
			r.seenC[j] = 0
		}
		r.epoch = 1
	}
}

// AugmentRow runs one augmenting DFS from row s and reports whether the
// matching grew. A matched (or out-of-range) source returns false
// immediately, so callers seed it straight from mutation endpoints.
func (r *Repairer) AugmentRow(mt *exact.Matching, s int32) bool {
	if int(s) >= r.g.Rows() || mt.RowMate[s] != exact.NIL {
		return false
	}
	r.nextEpoch()
	stack := append(r.stack[:0], s)
	r.arcR[s] = 0
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		adj := r.g.rows[u]
		advanced := false
		for r.arcR[u] < len(adj) {
			j := adj[r.arcR[u]]
			r.arcR[u]++
			if r.seenC[j] == r.epoch {
				continue
			}
			r.seenC[j] = r.epoch
			u2 := mt.ColMate[j]
			if u2 == exact.NIL {
				// Augment along the stack; RowMate recovers each
				// predecessor's previous column.
				for k := len(stack) - 1; k >= 0; k-- {
					row := stack[k]
					pj := mt.RowMate[row]
					mt.RowMate[row] = j
					mt.ColMate[j] = row
					j = pj
				}
				mt.Size++
				r.stack = stack[:0]
				return true
			}
			stack = append(stack, u2)
			r.arcR[u2] = 0
			advanced = true
			break
		}
		if !advanced {
			stack = stack[:len(stack)-1]
		}
	}
	r.stack = stack[:0]
	return false
}

// AugmentCol runs one augmenting DFS from column s — the mirror of
// AugmentRow over the column-side adjacency.
func (r *Repairer) AugmentCol(mt *exact.Matching, s int32) bool {
	if int(s) >= r.g.Cols() || mt.ColMate[s] != exact.NIL {
		return false
	}
	r.nextEpoch()
	stack := append(r.stack[:0], s)
	r.arcC[s] = 0
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		adj := r.g.cols[u]
		advanced := false
		for r.arcC[u] < len(adj) {
			i := adj[r.arcC[u]]
			r.arcC[u]++
			if r.seenR[i] == r.epoch {
				continue
			}
			r.seenR[i] = r.epoch
			u2 := mt.RowMate[i]
			if u2 == exact.NIL {
				for k := len(stack) - 1; k >= 0; k-- {
					col := stack[k]
					pi := mt.ColMate[col]
					mt.ColMate[col] = i
					mt.RowMate[i] = col
					i = pi
				}
				mt.Size++
				r.stack = stack[:0]
				return true
			}
			stack = append(stack, u2)
			r.arcC[u2] = 0
			advanced = true
			break
		}
		if !advanced {
			stack = stack[:len(stack)-1]
		}
	}
	r.stack = stack[:0]
	return false
}

// Complete advances mt to a maximum matching of the current adjacency
// with Hopcroft–Karp phases and returns the number of augmenting paths
// applied. Warm-started from a near-maximum matching it typically needs
// one phase of work plus one to prove maximality.
func (r *Repairer) Complete(mt *exact.Matching) int {
	before := mt.Size
	for r.phase(mt) {
	}
	return mt.Size - before
}

// phase runs one Hopcroft–Karp phase over the mutable adjacency, reading
// rows[i] slices instead of CSR rows, and reports whether the matching
// may still be improvable. It always keeps the full layering: its BFS
// layers every row the exposed rows reach, where exact.HKRefiner's phase
// stops at the first free layer when spare columns are plentiful. Giving
// it that rule, and the search side, is ROADMAP item 2(d).
func (r *Repairer) phase(mt *exact.Matching) bool {
	g, n := r.g, r.g.Rows()
	dist := r.dist
	queue := r.queue[:0]
	for i := 0; i < n; i++ {
		if mt.RowMate[i] == exact.NIL {
			dist[i] = 0
			queue = append(queue, int32(i))
		} else {
			dist[i] = inf
		}
	}
	found := false
	for qh := 0; qh < len(queue); qh++ {
		i := queue[qh]
		for _, j := range g.rows[i] {
			i2 := mt.ColMate[j]
			if i2 == exact.NIL {
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
		return false
	}
	arc := r.arcR
	for i := 0; i < n; i++ {
		arc[i] = 0
	}
	stack := r.stack
	for s := 0; s < n; s++ {
		if mt.RowMate[s] != exact.NIL || dist[s] != 0 {
			continue
		}
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			adj := g.rows[i]
			advanced := false
			for arc[i] < len(adj) {
				j := adj[arc[i]]
				arc[i]++
				i2 := mt.ColMate[j]
				if i2 == exact.NIL {
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
				dist[i] = inf
				stack = stack[:len(stack)-1]
			}
		}
	}
	r.stack = stack
	return true
}
