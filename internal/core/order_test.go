package core

import (
	"math"
	"testing"

	"repro/internal/sparse"
	"repro/internal/xrand"
)

// FuzzSampleGrouped holds the degree-ordered sampler to sampleRow, row by
// row. The seed drives the random weights and the draws. The first byte
// of data is a mode:
//
//   - bits 4–7 pick each column's weight kind — zero, one repeated value,
//     or random — as a start kind plus a stride over the 21 columns, so
//     the weights are all of one kind or a mix;
//   - bit 1 supplies precomputed row totals, bit 2 gives the matrix edge
//     values, and bit 3 makes the draw uniform.
//
// Every further byte adds one row:
//
//   - its degree, byte % 21, covers empty rows, every fixed-trip-count
//     group and rows past the 16/17 boundary;
//   - its columns start at column byte % 7 and wrap around;
//   - with totals, bits 5–6 make the row's total the exact prefix sum
//     (0 or 1), zero (2) or NaN (3).
//
// SampleRowChoices, at a chunk that splits the groups, must return
// sampleRow's choice for every row.
func FuzzSampleGrouped(f *testing.F) {
	f.Add(uint64(1), []byte{0x20, 1, 2, 3, 16, 17, 18, 20})
	f.Add(uint64(7), []byte{0x40, 16, 16, 17, 17, 37, 38, 59, 60})
	f.Add(uint64(42), []byte{0x22, 2, 34, 66, 98, 5, 37, 69, 101})
	f.Add(uint64(3), []byte{0x12, 20, 52, 84, 116, 0, 15, 47})
	f.Add(uint64(99), []byte{0x26, 4, 8, 12, 16})
	f.Add(uint64(5), []byte{0x0a, 3, 3, 3, 19, 19})
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		if len(data) < 2 {
			return
		}
		const cols = 21
		mode, rows := data[0], data[1:]
		if len(rows) > 64 {
			rows = rows[:64]
		}
		rng := xrand.NewSplitMix64(seed)
		w := make([]float64, cols)
		repeated := rng.Float64()
		for j := range w {
			switch (int(mode>>4) + j*int(mode>>6)) % 3 {
			case 0:
				w[j] = 0
			case 1:
				w[j] = repeated
			default:
				w[j] = rng.Float64() * math.Exp2(float64(rng.Intn(40)-20))
			}
		}
		a := &sparse.CSR{RowsN: len(rows), ColsN: cols, Ptr: make([]int, len(rows)+1)}
		for i, b := range rows {
			d, first := int(b)%21, int(b)%7
			for k := 0; k < d; k++ {
				a.Idx = append(a.Idx, int32((first+k)%cols))
			}
			a.Ptr[i+1] = len(a.Idx)
		}
		if mode&4 != 0 {
			a.Val = make([]float64, len(a.Idx))
			for p := range a.Val {
				a.Val[p] = rng.Float64()
			}
		}
		if mode&8 != 0 {
			w = nil
		}
		var tot []float64
		if mode&2 != 0 {
			tot = make([]float64, a.RowsN)
			for i, b := range rows {
				switch (b >> 5) & 3 {
				case 0, 1:
					for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
						tot[i] += weight(a, w, p)
					}
				case 2:
					tot[i] = 0
				case 3:
					tot[i] = math.NaN()
				}
			}
		}

		got := SampleRowChoices(a, nil, w, Options{Workers: 1, Chunk: 3, Seed: seed, RowTotals: tot})
		base := xrand.Base(seed)
		var r xrand.SplitMix64
		for i := range rows {
			r.SetIndexed(base, i)
			if want := sampleRow(a, w, i, tot, &r); got[i] != want {
				t.Fatalf("row %d (degree %d): grouped draw %d, sampleRow %d", i, a.Degree(i), got[i], want)
			}
		}
	})
}
