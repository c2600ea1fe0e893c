package sparse

import "fmt"

// Coord is a single (row, column) coordinate, optionally weighted.
type Coord struct {
	I, J int32
	V    float64
}

// FromCOO builds a CSR from coordinate entries, sorting them by (row,
// column) and merging duplicate coordinates, keeping the last value in
// input order (like most assembly conventions). weighted keeps the values;
// otherwise the result is a pattern. Entries out of range yield an error
// naming the first one.
//
// It neither copies nor modifies entries. Entries already in strictly
// increasing (row, column) order are written straight into the result;
// others are transposed twice, as assemble.go describes, in
// O(nnz + rows + cols) time, allocating beyond the result one int per
// column and one int32 per entry, plus one float64 per entry when
// weighted. The result's Idx and Val have capacity for every entry,
// duplicates included.
func FromCOO(rows, cols int, entries []Coord, weighted bool) (*CSR, error) {
	ptr := make([]int, rows+1)
	ordered := true // strictly increasing (row, column) so far
	for k, e := range entries {
		if e.I < 0 || int(e.I) >= rows || e.J < 0 || int(e.J) >= cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrInvalid, e.I, e.J, rows, cols)
		}
		ptr[e.I+1]++
		if ordered && k > 0 {
			p := entries[k-1]
			ordered = p.I < e.I || p.I == e.I && p.J < e.J
		}
	}
	a := &CSR{RowsN: rows, ColsN: cols, Ptr: ptr, Idx: make([]int32, len(entries))}
	if weighted {
		a.Val = make([]float64, len(entries))
	}
	for i := 0; i < rows; i++ {
		ptr[i+1] += ptr[i]
	}
	if ordered {
		for k, e := range entries {
			a.Idx[k] = e.J
			if weighted {
				a.Val[k] = e.V
			}
		}
		return a, nil
	}
	// The first pass: the transpose, its rows filled in input order.
	t := &CSR{RowsN: cols, ColsN: rows, Ptr: make([]int, cols+1), Idx: make([]int32, len(entries))}
	if weighted {
		t.Val = make([]float64, len(entries))
	}
	tPtr, tIdx, tVal := t.Ptr, t.Idx, t.Val
	for _, e := range entries {
		tPtr[e.J+1]++
	}
	for j := 0; j < cols; j++ {
		tPtr[j+1] += tPtr[j]
	}
	next := tPtr[:cols] // next[j] is column j's next free slot
	for _, e := range entries {
		q := next[e.J]
		next[e.J] = q + 1
		tIdx[q] = e.I
		if weighted {
			tVal[q] = e.V
		}
	}
	copy(tPtr[1:], next)
	tPtr[0] = 0
	t.transposeInto(a)
	a.mergeDuplicates()
	return a, nil
}

// ToCOO returns the coordinate entries of the matrix in row-major order.
func (a *CSR) ToCOO() []Coord {
	out := make([]Coord, 0, a.NNZ())
	for i := 0; i < a.RowsN; i++ {
		for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
			c := Coord{I: int32(i), J: a.Idx[p], V: 1}
			if a.Val != nil {
				c.V = a.Val[p]
			}
			out = append(out, c)
		}
	}
	return out
}

// FromDense builds a pattern CSR from a dense 0/1 grid; handy in tests.
func FromDense(grid [][]int) *CSR {
	rows := len(grid)
	cols := 0
	if rows > 0 {
		cols = len(grid[0])
	}
	var entries []Coord
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if grid[i][j] != 0 {
				entries = append(entries, Coord{I: int32(i), J: int32(j)})
			}
		}
	}
	a, err := FromCOO(rows, cols, entries, false)
	if err != nil {
		panic(err) // impossible: indices constructed in range
	}
	return a
}
