// Package sparse provides the compressed sparse row/column matrix
// structures that represent bipartite graphs throughout the library.
//
// A bipartite graph G = (VR ∪ VC, E) is stored as the sparse pattern of its
// biadjacency matrix A: rows correspond to VR, columns to VC, and a_ij != 0
// iff (r_i, c_j) ∈ E. Algorithms that need both orientations (scaling,
// Karp–Sipser, Hopcroft–Karp) take the matrix together with its transpose,
// which callers typically obtain once via Transpose and reuse.
package sparse

import (
	"errors"
	"fmt"
	"slices"
)

// CSR is a sparse matrix in compressed sparse row format. Val is optional:
// a nil Val means a 0/1 pattern matrix, which is what the matching
// heuristics operate on; scaling accepts general nonnegative values.
type CSR struct {
	RowsN int     // number of rows (|VR|)
	ColsN int     // number of columns (|VC|)
	Ptr   []int   // row pointers, len RowsN+1
	Idx   []int32 // column indices, len NNZ
	Val   []float64
}

// ErrInvalid reports a structurally invalid matrix.
var ErrInvalid = errors.New("sparse: invalid matrix")

// New constructs a CSR from raw components and validates it.
func New(rows, cols int, ptr []int, idx []int32, val []float64) (*CSR, error) {
	a := &CSR{RowsN: rows, ColsN: cols, Ptr: ptr, Idx: idx, Val: val}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// NNZ returns the number of stored entries (edges).
func (a *CSR) NNZ() int { return len(a.Idx) }

// Degree returns the number of entries in row i.
func (a *CSR) Degree(i int) int { return a.Ptr[i+1] - a.Ptr[i] }

// Row returns the column indices of row i as a sub-slice (not a copy).
func (a *CSR) Row(i int) []int32 { return a.Idx[a.Ptr[i]:a.Ptr[i+1]] }

// RowVal returns the values of row i, or nil for pattern matrices.
func (a *CSR) RowVal(i int) []float64 {
	if a.Val == nil {
		return nil
	}
	return a.Val[a.Ptr[i]:a.Ptr[i+1]]
}

// Validate checks structural invariants: monotone pointers, in-range
// indices, matching array lengths.
func (a *CSR) Validate() error {
	if a.RowsN < 0 || a.ColsN < 0 {
		return fmt.Errorf("%w: negative dimension %dx%d", ErrInvalid, a.RowsN, a.ColsN)
	}
	if len(a.Ptr) != a.RowsN+1 {
		return fmt.Errorf("%w: len(Ptr)=%d want %d", ErrInvalid, len(a.Ptr), a.RowsN+1)
	}
	if a.Ptr[0] != 0 {
		return fmt.Errorf("%w: Ptr[0]=%d want 0", ErrInvalid, a.Ptr[0])
	}
	if a.Ptr[a.RowsN] != len(a.Idx) {
		return fmt.Errorf("%w: Ptr[n]=%d want len(Idx)=%d", ErrInvalid, a.Ptr[a.RowsN], len(a.Idx))
	}
	if a.Val != nil && len(a.Val) != len(a.Idx) {
		return fmt.Errorf("%w: len(Val)=%d want %d", ErrInvalid, len(a.Val), len(a.Idx))
	}
	for i := 0; i < a.RowsN; i++ {
		if a.Ptr[i] > a.Ptr[i+1] {
			return fmt.Errorf("%w: Ptr not monotone at row %d", ErrInvalid, i)
		}
	}
	for _, j := range a.Idx {
		if j < 0 || int(j) >= a.ColsN {
			return fmt.Errorf("%w: column index %d out of range [0,%d)", ErrInvalid, j, a.ColsN)
		}
	}
	return nil
}

// Clone returns a deep copy. A weighted matrix stays weighted even when
// it has no entries.
func (a *CSR) Clone() *CSR {
	return &CSR{RowsN: a.RowsN, ColsN: a.ColsN, Ptr: slices.Clone(a.Ptr), Idx: slices.Clone(a.Idx), Val: slices.Clone(a.Val)}
}

// Transpose returns Aᵀ (the CSC view of A), built with a counting sort in
// O(nnz + rows + cols) time. Each row of the result lists its entries in
// A's row order, so its indices are sorted and duplicates keep their
// order.
func (a *CSR) Transpose() *CSR {
	t := &CSR{RowsN: a.ColsN, ColsN: a.RowsN, Ptr: make([]int, a.ColsN+1), Idx: make([]int32, len(a.Idx))}
	if a.Val != nil {
		t.Val = make([]float64, len(a.Val))
	}
	for _, j := range a.Idx {
		t.Ptr[j+1]++
	}
	for j := 0; j < a.ColsN; j++ {
		t.Ptr[j+1] += t.Ptr[j]
	}
	a.transposeInto(t)
	return t
}

// SortRows sorts the column indices (and values) within every row. The
// sort is stable: duplicate entries stay, in their order within the row.
// Generators and I/O produce sorted rows already; this is exposed for
// matrices assembled by hand. It transposes a twice (see assemble.go), in
// O(nnz + rows + cols) time, allocating only the transpose: one int per
// column and one int32 per entry, plus one float64 per entry when a is
// weighted.
func (a *CSR) SortRows() { a.Transpose().transposeInto(a) }

// HasSortedRows reports whether every row's indices are strictly
// increasing (sorted and duplicate-free).
func (a *CSR) HasSortedRows() bool {
	for i := 0; i < a.RowsN; i++ {
		for p := a.Ptr[i] + 1; p < a.Ptr[i+1]; p++ {
			if a.Idx[p-1] >= a.Idx[p] {
				return false
			}
		}
	}
	return true
}

// Equal reports structural (and value) equality.
func (a *CSR) Equal(b *CSR) bool {
	if a.RowsN != b.RowsN || a.ColsN != b.ColsN || len(a.Idx) != len(b.Idx) {
		return false
	}
	for i := range a.Ptr {
		if a.Ptr[i] != b.Ptr[i] {
			return false
		}
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] {
			return false
		}
	}
	if (a.Val == nil) != (b.Val == nil) {
		return false
	}
	if a.Val != nil {
		for i := range a.Val {
			if a.Val[i] != b.Val[i] {
				return false
			}
		}
	}
	return true
}

// MaxDegree returns the largest row degree.
func (a *CSR) MaxDegree() int {
	m := 0
	for i := 0; i < a.RowsN; i++ {
		if d := a.Degree(i); d > m {
			m = d
		}
	}
	return m
}

// AvgDegree returns the mean row degree.
func (a *CSR) AvgDegree() float64 {
	if a.RowsN == 0 {
		return 0
	}
	return float64(a.NNZ()) / float64(a.RowsN)
}

// DegreeVariance returns the variance of the row degrees; the paper uses
// it to explain load-imbalance effects (torso1, audikw_1).
func (a *CSR) DegreeVariance() float64 {
	if a.RowsN == 0 {
		return 0
	}
	mean := a.AvgDegree()
	var ss float64
	for i := 0; i < a.RowsN; i++ {
		d := float64(a.Degree(i)) - mean
		ss += d * d
	}
	return ss / float64(a.RowsN)
}

// EmptyRows returns the number of rows with no entries.
func (a *CSR) EmptyRows() int {
	c := 0
	for i := 0; i < a.RowsN; i++ {
		if a.Degree(i) == 0 {
			c++
		}
	}
	return c
}

// PermuteRows returns the matrix with rows reordered so that new row i is
// old row perm[i]. perm must be a permutation of [0, RowsN).
func (a *CSR) PermuteRows(perm []int32) (*CSR, error) {
	if len(perm) != a.RowsN {
		return nil, fmt.Errorf("%w: perm length %d want %d", ErrInvalid, len(perm), a.RowsN)
	}
	b := &CSR{RowsN: a.RowsN, ColsN: a.ColsN}
	b.Ptr = make([]int, a.RowsN+1)
	for i := 0; i < a.RowsN; i++ {
		b.Ptr[i+1] = b.Ptr[i] + a.Degree(int(perm[i]))
	}
	b.Idx = make([]int32, len(a.Idx))
	if a.Val != nil {
		b.Val = make([]float64, len(a.Val))
	}
	for i := 0; i < a.RowsN; i++ {
		src := int(perm[i])
		copy(b.Idx[b.Ptr[i]:b.Ptr[i+1]], a.Row(src))
		if a.Val != nil {
			copy(b.Val[b.Ptr[i]:b.Ptr[i+1]], a.RowVal(src))
		}
	}
	return b, nil
}

// PermuteCols returns the matrix with columns relabeled so that old column
// j becomes perm[j]. Rows are re-sorted afterwards.
func (a *CSR) PermuteCols(perm []int32) (*CSR, error) {
	if len(perm) != a.ColsN {
		return nil, fmt.Errorf("%w: perm length %d want %d", ErrInvalid, len(perm), a.ColsN)
	}
	b := a.Clone()
	for p, j := range b.Idx {
		b.Idx[p] = perm[j]
	}
	b.SortRows()
	return b, nil
}

// String renders small matrices as a dense 0/1 grid for debugging and
// summarizes large ones.
func (a *CSR) String() string {
	if a.RowsN > 16 || a.ColsN > 16 {
		return fmt.Sprintf("CSR{%dx%d, nnz=%d}", a.RowsN, a.ColsN, a.NNZ())
	}
	out := fmt.Sprintf("CSR %dx%d nnz=%d\n", a.RowsN, a.ColsN, a.NNZ())
	for i := 0; i < a.RowsN; i++ {
		row := make([]byte, a.ColsN)
		for k := range row {
			row[k] = '.'
		}
		for _, j := range a.Row(i) {
			row[j] = '1'
		}
		out += string(row) + "\n"
	}
	return out
}
