package exact

import "repro/internal/sparse"

// PRRefiner is the incremental form of the push-relabel / auction scheme:
// the matching, the column labels and the active-row stack, advanced a
// bounded number of bids at a time. The held matching is valid between
// steps and its size is monotone (a bid either evicts — size unchanged —
// or claims a free column), so callers can interleave bounded Step calls
// with other work and stop as soon as the size crosses a bound, exactly
// like HKRefiner.
//
// It is super-quadratic on rows that no maximum matching covers: each
// such doomed row keeps bidding, raising labels one step at a time, until
// every label it sees reaches the n+m+1 cap. Run on the side with fewer
// non-isolated vertices (SearchColumns), a graph has doomed search roots
// only when both sides carry doomed non-isolated vertices.
type PRRefiner struct {
	a  *sparse.CSR
	mt *Matching

	// Label cap: an augmenting path alternates rows and columns and visits
	// each column at most once, so any column reachable by one has label
	// < n+m+1. Labels at or above the cap mean "unreachable".
	limit int32
	psi   []int32
	// Active rows: LIFO stack (order does not affect correctness).
	stack []int32
}

// NewPRRefiner prepares an incremental push-relabel run on a, warm-started
// from init (nil means the empty matching; init is copied, not mutated, and
// not retained).
func NewPRRefiner(a *sparse.CSR, init *Matching) *PRRefiner {
	return NewPRRefinerWs(a, init, &Workspace{})
}

// Matching returns the refiner's current matching. It is owned by the
// refiner until Step can no longer improve it; callers that mutate it must
// not call Step again.
func (r *PRRefiner) Matching() *Matching { return r.mt }

// Size returns the current matching cardinality.
func (r *PRRefiner) Size() int { return r.mt.Size }

// Done reports whether the matching is provably maximum (no active row
// remains: every free row's neighbors are all label-capped).
func (r *PRRefiner) Done() bool { return len(r.stack) == 0 }

// Step processes up to budget active rows — each pops the stack, bids for
// its cheapest neighbor column and raises that column's label — and reports
// whether active rows remain. A false return means the matching is maximum;
// the refiner stays in that state.
func (r *PRRefiner) Step(budget int) bool {
	a, mt := r.a, r.mt
	for ; budget > 0 && len(r.stack) > 0; budget-- {
		row := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		if mt.RowMate[row] != NIL {
			continue
		}
		// Find the cheapest and second-cheapest neighbor labels.
		var c1 int32 = -1
		min1, min2 := r.limit, r.limit
		for p := a.Ptr[row]; p < a.Ptr[row+1]; p++ {
			c := a.Idx[p]
			if r.psi[c] < min1 {
				min2 = min1
				min1 = r.psi[c]
				c1 = c
			} else if r.psi[c] < min2 {
				min2 = r.psi[c]
			}
		}
		if c1 < 0 || min1 >= r.limit {
			continue // row cannot be matched in any maximum matching
		}
		// Evict the current mate (it becomes active again) and take c1.
		if prev := mt.ColMate[c1]; prev != NIL {
			mt.RowMate[prev] = NIL
			r.stack = append(r.stack, prev)
		} else {
			mt.Size++
		}
		mt.RowMate[row] = c1
		mt.ColMate[c1] = row
		// Auction price update: one above the second-best alternative.
		r.psi[c1] = min2 + 1
	}
	return len(r.stack) > 0
}

// Run advances the refiner to the maximum matching and returns it.
func (r *PRRefiner) Run() *Matching {
	n := r.a.RowsN
	if n < 1 {
		n = 1
	}
	for r.Step(n) {
	}
	return r.mt
}

// PushRelabel computes a maximum matching with the push-relabel / auction
// scheme used by the GPU and multicore maximum-transversal codes the paper
// cites (Kaya–Langguth–Manne–Uçar 2013; Deveci et al. 2013). Each free
// row "bids" for its cheapest (lowest-label) neighbor column, evicting the
// column's current mate, and the column's label rises to one above the
// row's second-cheapest alternative. A row whose cheapest neighbor label
// reaches the cap provably has no augmenting path left and stays free.
//
// It is the third independent exact algorithm in this package (after
// Hopcroft–Karp and MC21); the test suite cross-checks all three. It is
// the one-shot form of PRRefiner.
func PushRelabel(a *sparse.CSR, init *Matching) *Matching {
	return NewPRRefiner(a, init).Run()
}
