package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sparse"
)

// The checkers below validate the programs' outputs against the
// benchmark's own copy of each generated graph, never against the
// library's view of it: a bug that corrupted both the graph and the
// matching consistently would otherwise pass.

// edgePos returns the position of edge (i, j) in a's storage, or -1. a's
// rows must be sorted.
func edgePos(a *sparse.CSR, i, j int32) int {
	lo, hi := a.Ptr[i], a.Ptr[i+1]
	row := a.Idx[lo:hi]
	k := sort.Search(len(row), func(k int) bool { return row[k] >= j })
	if k < len(row) && row[k] == j {
		return lo + k
	}
	return -1
}

// sortedCSR returns a with sorted rows, cloning it only when needed.
func sortedCSR(a *sparse.CSR) *sparse.CSR {
	if a.HasSortedRows() {
		return a
	}
	b := a.Clone()
	b.SortRows()
	return b
}

// checkRowMate verifies a row→column assignment: the right length, every
// matched column in range and used once, every matched pair an edge
// according to hasEdge, and size equal to the number of matched rows.
func checkRowMate(rows, cols int, rowMate []int32, size int, hasEdge func(i, j int32) bool) error {
	if len(rowMate) != rows {
		return fmt.Errorf("row_mate has %d entries for %d rows", len(rowMate), rows)
	}
	used := make([]bool, cols)
	matched := 0
	for i, j := range rowMate {
		if j == -1 {
			continue
		}
		if j < 0 || int(j) >= cols {
			return fmt.Errorf("row %d matched to out-of-range column %d", i, j)
		}
		if used[j] {
			return fmt.Errorf("column %d matched twice", j)
		}
		used[j] = true
		if !hasEdge(int32(i), j) {
			return fmt.Errorf("matched pair (%d,%d) is not an edge", i, j)
		}
		matched++
	}
	if matched != size {
		return fmt.Errorf("size %d but %d matched rows", size, matched)
	}
	return nil
}

// checkMatching verifies a matching with both mate arrays against a.
func checkMatching(a *sparse.CSR, rowMate, colMate []int32, size int) error {
	if err := checkRowMate(a.RowsN, a.ColsN, rowMate, size, func(i, j int32) bool { return edgePos(a, i, j) >= 0 }); err != nil {
		return err
	}
	if len(colMate) != a.ColsN {
		return fmt.Errorf("col_mate has %d entries for %d columns", len(colMate), a.ColsN)
	}
	for j, i := range colMate {
		if i != -1 && (i < 0 || int(i) >= a.RowsN || rowMate[i] != int32(j)) {
			return fmt.Errorf("col_mate[%d] = %d disagrees with row_mate", j, i)
		}
	}
	for i, j := range rowMate {
		if j != -1 && colMate[j] != int32(i) {
			return fmt.Errorf("row_mate[%d] = %d disagrees with col_mate", i, j)
		}
	}
	return nil
}

// checkAuction verifies a weighted answer: a valid matching of a whose
// recomputed weight equals the reported one and meets the auction's
// guarantee of at least (1−eps) times the optimum.
func checkAuction(a *sparse.CSR, rowMate []int32, size int, reported, optimum, eps float64) error {
	if err := checkRowMate(a.RowsN, a.ColsN, rowMate, size, func(i, j int32) bool { return edgePos(a, i, j) >= 0 }); err != nil {
		return err
	}
	w := 0.0
	for i, j := range rowMate {
		if j != -1 {
			w += a.Val[edgePos(a, int32(i), j)]
		}
	}
	if math.Abs(w-reported) > 1e-6*math.Max(1, math.Abs(w)) {
		return fmt.Errorf("matched_weight %v but the matched edges weigh %v", reported, w)
	}
	if floor := (1 - eps) * optimum; w < floor-1e-9*math.Max(1, optimum) {
		return fmt.Errorf("matched weight %v below (1-%v) x optimum %v = %v", w, eps, optimum, floor)
	}
	return nil
}
