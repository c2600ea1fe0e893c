package sparse

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// compareCoord orders entries by (row, column).
func compareCoord(x, y Coord) int {
	return cmp.Or(cmp.Compare(x.I, y.I), cmp.Compare(x.J, y.J))
}

// referenceCOO is FromCOO's specification, written the obvious way: the
// first entry out of range is the error; otherwise a stable comparison
// sort by (row, column), and each run of equal coordinates merged into
// one entry carrying the run's last value.
func referenceCOO(rows, cols int, entries []Coord, weighted bool) (*CSR, error) {
	for _, e := range entries {
		if e.I < 0 || int(e.I) >= rows || e.J < 0 || int(e.J) >= cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrInvalid, e.I, e.J, rows, cols)
		}
	}
	s := slices.Clone(entries)
	slices.SortStableFunc(s, compareCoord)
	merged := s[:0]
	for _, e := range s {
		if n := len(merged); n > 0 && compareCoord(merged[n-1], e) == 0 {
			merged[n-1].V = e.V
			continue
		}
		merged = append(merged, e)
	}
	return referenceCSR(rows, cols, merged, weighted), nil
}

// referenceCSR lays out entries already in row order as a CSR.
func referenceCSR(rows, cols int, entries []Coord, weighted bool) *CSR {
	a := &CSR{RowsN: rows, ColsN: cols, Ptr: make([]int, rows+1), Idx: make([]int32, len(entries))}
	if weighted {
		a.Val = make([]float64, len(entries))
	}
	for k, e := range entries {
		a.Ptr[e.I+1]++
		a.Idx[k] = e.J
		if weighted {
			a.Val[k] = e.V
		}
	}
	for i := 0; i < rows; i++ {
		a.Ptr[i+1] += a.Ptr[i]
	}
	return a
}

// TestFromCOOLastValueWins holds FromCOO to its documented duplicate rule
// on inputs dense in duplicates: every merged coordinate keeps the value
// of its last occurrence in the input.
func TestFromCOOLastValueWins(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 200; trial++ {
		entries := make([]Coord, 300)
		last := map[[2]int32]float64{}
		for k := range entries {
			e := Coord{I: int32(rng.Intn(5)), J: int32(rng.Intn(5)), V: float64(k)}
			entries[k] = e
			last[[2]int32{e.I, e.J}] = e.V
		}
		a, err := FromCOO(5, 5, entries, true)
		if err != nil {
			t.Fatal(err)
		}
		if a.NNZ() != len(last) || !a.HasSortedRows() {
			t.Fatalf("trial %d: %d entries, sorted rows %v; want %d distinct coordinates in sorted rows", trial, a.NNZ(), a.HasSortedRows(), len(last))
		}
		for _, c := range a.ToCOO() {
			if want := last[[2]int32{c.I, c.J}]; c.V != want {
				t.Fatalf("trial %d: (%d,%d) kept value %v, want the last one, %v", trial, c.I, c.J, c.V, want)
			}
		}
	}
}

// allocated returns the fewest bytes f allocated over three calls.
func allocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for k := 0; k < 3; k++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestAssemblyScratchBytes holds the assembly to its memory bound: beyond
// its result, one int per column and one int32 per entry, plus one
// float64 per entry when weighted. FromCOO and Canonical also allocate the
// result, with room for every entry; FromCOO on entries already in order
// allocates only that, and SortRows only the scratch. The random entries
// hold a few duplicates.
func TestAssemblyScratchBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	const rows, cols, nnz, slack = 50000, 40000, 200000, 64 << 10
	random, rowMajor := benchEntries(rows, cols, nnz)
	byRow := slices.SortedStableFunc(slices.Values(random), func(x, y Coord) int { return cmp.Compare(x.I, y.I) })
	for _, weighted := range []bool{false, true} {
		entryBytes := uint64(4) // an int32 index
		if weighted {
			entryBytes += 8 // and a float64 value
		}
		result := 8*(rows+1) + entryBytes*nnz + slack
		scratch := 8*cols + entryBytes*nnz
		raw := referenceCSR(rows, cols, byRow, weighted)
		sorted := raw.Clone()
		sorted.SortRows() // sorting it again takes the same scratch
		for _, c := range []struct {
			name  string
			limit uint64
			f     func()
		}{
			{"FromCOO/random", result + scratch, func() { FromCOO(rows, cols, random, weighted) }},
			{"FromCOO/rowmajor", result, func() { FromCOO(rows, cols, rowMajor, weighted) }},
			{"Canonical", result + scratch, func() { raw.Canonical() }},
			{"SortRows", scratch + slack, func() { sorted.SortRows() }},
		} {
			if got := allocated(c.f); got > c.limit {
				t.Errorf("%s weighted=%v: allocated %d bytes, want at most %d", c.name, weighted, got, c.limit)
			}
		}
	}
}

// TestSortRowsKeepsDuplicatesInOrder checks SortRows' contract: rows in
// column order, duplicates kept, in their order within the row.
func TestSortRowsKeepsDuplicatesInOrder(t *testing.T) {
	a := &CSR{RowsN: 3, ColsN: 4, Ptr: []int{0, 5, 5, 9},
		Idx: []int32{3, 1, 3, 0, 1, 2, 2, 0, 2},
		Val: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}}
	a.SortRows()
	want := &CSR{RowsN: 3, ColsN: 4, Ptr: []int{0, 5, 5, 9},
		Idx: []int32{0, 1, 1, 3, 3, 0, 2, 2, 2},
		Val: []float64{4, 2, 5, 1, 3, 8, 6, 7, 9}}
	if !a.Equal(want) {
		t.Fatalf("SortRows gave Ptr %v Idx %v Val %v, want Ptr %v Idx %v Val %v", a.Ptr, a.Idx, a.Val, want.Ptr, want.Idx, want.Val)
	}
}

// TestCanonical checks that Canonical sorts and merges a copy, keeping the
// last value of each duplicate in row order, and leaves its receiver as
// it was.
func TestCanonical(t *testing.T) {
	a := &CSR{RowsN: 3, ColsN: 4, Ptr: []int{0, 5, 5, 9},
		Idx: []int32{3, 1, 3, 0, 1, 2, 2, 0, 2},
		Val: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}}
	before := a.Clone()
	got := a.Canonical()
	want := &CSR{RowsN: 3, ColsN: 4, Ptr: []int{0, 3, 3, 5},
		Idx: []int32{0, 1, 3, 0, 2},
		Val: []float64{4, 5, 3, 8, 9}}
	if !got.Equal(want) {
		t.Fatalf("Canonical gave Ptr %v Idx %v Val %v, want Ptr %v Idx %v Val %v", got.Ptr, got.Idx, got.Val, want.Ptr, want.Idx, want.Val)
	}
	if !a.Equal(before) {
		t.Fatal("Canonical changed its receiver")
	}
	pattern := &CSR{RowsN: 2, ColsN: 2, Ptr: []int{0, 3, 4}, Idx: []int32{1, 0, 1, 0}}
	if got := pattern.Canonical(); !got.Equal(FromDense([][]int{{1, 1}, {1, 0}})) {
		t.Fatalf("Canonical of a pattern gave Ptr %v Idx %v", got.Ptr, got.Idx)
	}
}

// FuzzFromCOO holds FromCOO to referenceCOO on small shapes, pattern and
// weighted, with entries as decoded, sorted with duplicates kept, sorted
// without them (the ordered path) or in reverse, and with some out of
// range. Every entry's value is unique, so a merge that keeps the wrong
// duplicate shows. Each input also checks SortRows and Canonical on the
// entries grouped by row in input order.
func FuzzFromCOO(f *testing.F) {
	f.Add(uint8(5), uint8(5), true, uint8(0), []byte{0, 1, 0, 2, 3, 0, 0, 1, 0, 4, 4, 0})
	f.Add(uint8(3), uint8(7), false, uint8(1), []byte{2, 6, 0, 0, 0, 0, 2, 6, 0, 1, 3, 0})
	f.Add(uint8(64), uint8(64), true, uint8(2), []byte{63, 63, 0, 0, 0, 0, 17, 40, 0, 17, 3, 0})
	f.Add(uint8(8), uint8(2), true, uint8(3), []byte{7, 1, 0, 7, 1, 0, 0, 0, 0, 3, 1, 0})
	f.Add(uint8(4), uint8(4), true, uint8(0), []byte{1, 1, 0, 255, 2, 0, 255, 200, 0, 3, 3, 0})
	f.Add(uint8(0), uint8(6), false, uint8(0), []byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, r, c uint8, weighted bool, order uint8, data []byte) {
		rows, cols := int(r)%65, int(c)%65
		entries := decodeEntries(rows, cols, data)
		switch order % 4 {
		case 1:
			slices.SortStableFunc(entries, compareCoord)
		case 2:
			slices.SortStableFunc(entries, compareCoord)
			entries = slices.CompactFunc(entries, func(x, y Coord) bool { return compareCoord(x, y) == 0 })
		case 3:
			slices.SortStableFunc(entries, compareCoord)
			slices.Reverse(entries)
		}
		before := slices.Clone(entries)
		got, err := FromCOO(rows, cols, entries, weighted)
		want, wantErr := referenceCOO(rows, cols, entries, weighted)
		if !slices.Equal(entries, before) {
			t.Fatal("FromCOO changed its entries")
		}
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("FromCOO error %v, want %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("FromCOO gave Ptr %v Idx %v Val %v, want Ptr %v Idx %v Val %v", got.Ptr, got.Idx, got.Val, want.Ptr, want.Idx, want.Val)
		}

		// The same entries as a CSR whose rows keep input order.
		byRow := slices.Clone(entries)
		slices.SortStableFunc(byRow, func(x, y Coord) int { return cmp.Compare(x.I, y.I) })
		raw := referenceCSR(rows, cols, byRow, weighted)
		rawBefore := raw.Clone()
		if canon := raw.Canonical(); !canon.Equal(want) {
			t.Fatalf("Canonical gave Ptr %v Idx %v Val %v, want Ptr %v Idx %v Val %v", canon.Ptr, canon.Idx, canon.Val, want.Ptr, want.Idx, want.Val)
		}
		if !raw.Equal(rawBefore) {
			t.Fatal("Canonical changed its receiver")
		}
		slices.SortStableFunc(byRow, compareCoord)
		raw.SortRows()
		if sorted := referenceCSR(rows, cols, byRow, weighted); !raw.Equal(sorted) {
			t.Fatalf("SortRows gave Idx %v Val %v, want Idx %v Val %v", raw.Idx, raw.Val, sorted.Idx, sorted.Val)
		}
	})
}

// decodeEntries reads up to 512 entries of three bytes each: a row byte,
// a column byte and a value byte. A row byte of 255 puts the entry out of
// range, below or past the rows as the column byte says; otherwise the
// bytes are taken modulo the shape (and an empty side is out of range).
// Entry k carries the value k + b/256 for its value byte b.
func decodeEntries(rows, cols int, data []byte) []Coord {
	n := min(len(data)/3, 512)
	entries := make([]Coord, n)
	for k := range entries {
		b := data[3*k : 3*k+3]
		e := Coord{V: float64(k) + float64(b[2])/256}
		switch {
		case b[0] == 255 && b[1]%2 == 0:
			e.I, e.J = -1-int32(b[1]%5), int32(b[1])%int32(max(cols, 1))
		case b[0] == 255:
			e.I, e.J = int32(rows)+int32(b[1]%5), int32(b[1])%int32(max(cols, 1))
		default:
			e.I, e.J = int32(b[0])%int32(max(rows, 1)), int32(b[1])%int32(max(cols, 1))
		}
		entries[k] = e
	}
	return entries
}

// benchEntries returns n uniformly random entries of a rows×cols matrix
// with values, and the same matrix's entries in row-major order (merged,
// so strictly increasing).
func benchEntries(rows, cols, n int) (random, rowMajor []Coord) {
	rng := xrand.New(1)
	random = make([]Coord, n)
	for k := range random {
		random[k] = Coord{I: int32(rng.Intn(rows)), J: int32(rng.Intn(cols)), V: float64(k)}
	}
	a, err := FromCOO(rows, cols, random, true)
	if err != nil {
		panic(err)
	}
	return random, a.ToCOO()
}

// BenchmarkFromCOO times FromCOO on about 1M entries of a 262,144-square
// matrix (4 a row), in random and in row-major order, as a pattern and
// weighted.
func BenchmarkFromCOO(b *testing.B) {
	const n = 1 << 18
	random, rowMajor := benchEntries(n, n, 4*n)
	for _, in := range []struct {
		name    string
		entries []Coord
	}{{"random", random}, {"rowmajor", rowMajor}} {
		for _, weighted := range []bool{false, true} {
			name := in.name + "/pattern"
			if weighted {
				name = in.name + "/weighted"
			}
			b.Run(name, func(b *testing.B) {
				for b.Loop() {
					if _, err := FromCOO(n, n, in.entries, weighted); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
