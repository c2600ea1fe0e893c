package sparse

import "slices"

// Entries in arbitrary order reach a CSR through one assembly, shared by
// FromCOO, CSR.SortRows and CSR.Canonical: a least-significant-digit radix
// sort on (row, column) made of two stable counting passes, which are two
// transposes.
//
//  1. By column: the entries become the rows of the transpose, each row
//     holding its entries in input order (Transpose, or FromCOO's own pass
//     over its entries).
//  2. By row: transposeInto walks the transpose row by row and puts each
//     entry in the next free slot of its row in the output, so every row
//     comes out in column order with duplicates in input order.
//
// Both passes take O(nnz + rows + cols) time. Beyond the output they
// allocate only the transpose: one int per column and one int32 per entry,
// plus one float64 per entry for a weighted matrix. Each pass uses its
// result's Ptr as the cursors. The output's Idx and Val are sized for
// every entry, and merging duplicates shortens them in place.

// transposeInto writes aᵀ into t, whose Ptr must already hold aᵀ's row
// pointers and whose Idx (and Val, when a is weighted) must have one slot
// per entry. Each row of t lists its entries in a's row order, so its
// indices come out sorted, with duplicates in a's order. t's Ptr serves as
// the row cursors and holds the row pointers again on return.
func (a *CSR) transposeInto(t *CSR) {
	next := t.Ptr[:t.RowsN] // next[j] is row j's next free slot
	p := 0
	for i, end := range a.Ptr[1:] {
		for ; p < end; p++ {
			j := a.Idx[p]
			q := next[j]
			next[j] = q + 1
			t.Idx[q] = int32(i)
			if a.Val != nil {
				t.Val[q] = a.Val[p]
			}
		}
	}
	// Each cursor stopped at the end of its row, the next row's start.
	copy(t.Ptr[1:], next)
	t.Ptr[0] = 0
}

// mergeDuplicates merges each run of equal column indices within a row
// into its first slot, keeping the run's last value, and shortens Idx
// (and Val) to the entries kept. Rows must be in column order. It copies
// nothing: each merged entry leaves one slot of unused capacity.
func (a *CSR) mergeDuplicates() {
	w, start := 0, 0
	for i := 0; i < a.RowsN; i++ {
		end, first := a.Ptr[i+1], w
		for p := start; p < end; p++ {
			j := a.Idx[p]
			if w > first && a.Idx[w-1] == j {
				if a.Val != nil {
					a.Val[w-1] = a.Val[p]
				}
				continue
			}
			a.Idx[w] = j
			if a.Val != nil {
				a.Val[w] = a.Val[p]
			}
			w++
		}
		a.Ptr[i+1] = w
		start = end
	}
	a.Idx = a.Idx[:w]
	if a.Val != nil {
		a.Val = a.Val[:w]
	}
}

// Canonical returns a copy of a with every row sorted and duplicate
// entries merged, keeping the last value of each duplicate in row order:
// the rows of the result are strictly increasing (HasSortedRows holds).
// It leaves a unchanged and takes O(nnz + rows + cols) time; beyond the
// result it allocates one int per column and one int32 per entry, plus one
// float64 per entry when a is weighted. The result's Idx and Val have
// capacity for all of a's entries.
func (a *CSR) Canonical() *CSR {
	b := &CSR{RowsN: a.RowsN, ColsN: a.ColsN, Ptr: slices.Clone(a.Ptr), Idx: make([]int32, len(a.Idx))}
	if a.Val != nil {
		b.Val = make([]float64, len(a.Val))
	}
	a.Transpose().transposeInto(b)
	b.mergeDuplicates()
	return b
}
