package exact

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// randomGreedy returns a valid warm start on a: rows in a seeded random
// order, each matched with probability keep/4 to a random free neighbor.
func randomGreedy(a *sparse.CSR, seed uint64, keep int) *Matching {
	rng := xrand.NewSplitMix64(seed)
	mt := NewMatching(a.RowsN, a.ColsN)
	order := make([]int, a.RowsN)
	for i := range order {
		order[i] = i
	}
	for k := len(order) - 1; k > 0; k-- {
		l := rng.Intn(k + 1)
		order[k], order[l] = order[l], order[k]
	}
	var free []int32
	for _, i := range order {
		if rng.Intn(4) >= keep {
			continue
		}
		free = free[:0]
		for _, j := range a.Row(i) {
			if mt.ColMate[j] == NIL {
				free = append(free, j)
			}
		}
		if len(free) > 0 {
			j := free[rng.Intn(len(free))]
			mt.RowMate[i], mt.ColMate[j] = j, int32(i)
			mt.Size++
		}
	}
	return mt
}

// FuzzHKRefiner builds a pattern of up to 40×40 from its input — the
// first two bytes size the sides, the third seeds a random greedy warm
// start, and each further byte pair is an edge, so empty rows and
// columns occur, and spare columns are plentiful on some patterns and
// scarce on others — and runs HKRefiner one phase at a time. The matching
// must stay valid, every phase that reports progress must grow it, and
// the final size must equal MC21's and push-relabel's and carry a König
// certificate. The warm start must come back unmodified, and the
// transpose, refined from the mirrored warm start on the same workspace,
// must reach the same size; so must a second run on a, on the workspace
// the two constructions before it used.
func FuzzHKRefiner(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{3, 3, 1, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2})
	f.Add([]byte{6, 2, 7, 0, 0, 1, 0, 2, 0, 3, 1, 4, 1, 5, 1})
	f.Add([]byte{2, 7, 2, 0, 0, 0, 1, 0, 2, 1, 3, 1, 4, 1, 5, 1, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, m := int(data[0])%41, int(data[1])%41
		var coords []sparse.Coord
		if n > 0 && m > 0 {
			for k := 3; k+1 < len(data); k += 2 {
				coords = append(coords, sparse.Coord{I: int32(int(data[k]) % n), J: int32(int(data[k+1]) % m)})
			}
		}
		a, err := sparse.FromCOO(n, m, coords, false)
		if err != nil {
			t.Fatal(err)
		}
		init := randomGreedy(a, uint64(data[2]), int(data[2])%5)
		initRows := slices.Clone(init.RowMate)
		initCols := slices.Clone(init.ColMate)
		initSize := init.Size

		ws := &Workspace{}
		r := NewHKRefinerWs(a, init, ws)
		prev := r.Size()
		for phases := 0; r.Phase(); phases++ {
			validRefinerMatching(t, a, r.Matching())
			if r.Size() <= prev {
				t.Fatalf("a phase that reported progress left the size at %d", r.Size())
			}
			if phases > n {
				t.Fatalf("%d phases on %d rows", phases, n)
			}
			prev = r.Size()
		}
		if !r.Done() || r.Phase() {
			t.Fatal("a finished refiner must stay done")
		}
		mt := r.Matching()
		validRefinerMatching(t, a, mt)
		if want := MC21(a, nil).Size; mt.Size != want {
			t.Fatalf("HKRefiner reached %d, MC21 %d", mt.Size, want)
		}
		if want := PushRelabel(a, nil).Size; mt.Size != want {
			t.Fatalf("HKRefiner reached %d, push-relabel %d", mt.Size, want)
		}
		if !Certify(a, mt) {
			t.Fatal("the König certificate rejects the refined matching")
		}
		size := mt.Size
		if !slices.Equal(init.RowMate, initRows) || !slices.Equal(init.ColMate, initCols) || init.Size != initSize {
			t.Fatal("the refiner modified its warm start")
		}

		at := a.Transpose()
		if got := NewHKRefinerWs(at, Mirror(&Matching{}, init), ws).Run().Size; got != size {
			t.Fatalf("the transpose reached %d, the rows %d", got, size)
		}
		if got := NewHKRefinerWs(a, init, ws).Run().Size; got != size {
			t.Fatalf("a rerun on the reused workspace reached %d, the first %d", got, size)
		}
	})
}

// TestHKRefinerLongPathsFewPhases: on one long alternating path, a
// random greedy warm start leaves exposed rows whose augmenting paths
// have many different lengths. The path has no spare columns, so a
// phase's BFS must layer everything the exposed rows reach: stopped at
// the first free layer, each phase would augment only the paths of one
// length and the run would take dozens of phases. The refiner must
// finish within 3.
func TestHKRefinerLongPathsFewPhases(t *testing.T) {
	a := gen.LongThinPath(20000)
	for _, seed := range []uint64{1, 2, 3} {
		init := randomGreedy(a, seed, 4)
		r := NewHKRefiner(a, init)
		phases := 1
		for r.Phase() {
			phases++
		}
		if r.Size() != a.RowsN {
			t.Fatalf("seed %d: reached %d of %d", seed, r.Size(), a.RowsN)
		}
		if phases > 3 {
			t.Fatalf("seed %d: %d phases from %d exposed rows, want at most 3", seed, phases, a.RowsN-init.Size)
		}
	}
}

// TestHKRefinerStopsEarlyOnSpareColumns: on the transpose of a
// rank-deficient pattern, spare columns outnumber the exposed rows, so a
// phase's BFS stops at the first free layer instead of layering every
// row the exposed rows reach. The first phase must layer fewer than half
// of those rows, and the run must still reach the maximum.
func TestHKRefinerStopsEarlyOnSpareColumns(t *testing.T) {
	a := gen.RankDeficient(4000, 1200, 6, 7).Transpose()
	init := randomGreedy(a, 5, 3)
	mt := NewMatching(a.RowsN, a.ColsN)
	copy(mt.RowMate, init.RowMate)
	copy(mt.ColMate, init.ColMate)
	reached := make([]bool, a.RowsN)
	var queue []int32
	for i := 0; i < a.RowsN; i++ {
		if mt.RowMate[i] == NIL && a.Degree(i) > 0 {
			reached[i] = true
			queue = append(queue, int32(i))
		}
	}
	for qh := 0; qh < len(queue); qh++ {
		for _, j := range a.Row(int(queue[qh])) {
			if i2 := mt.ColMate[j]; i2 != NIL && !reached[i2] {
				reached[i2] = true
				queue = append(queue, i2)
			}
		}
	}

	r := NewHKRefiner(a, init)
	if !r.Phase() {
		t.Fatal("the first phase found no augmenting path")
	}
	if 2*len(r.queue) >= len(queue) {
		t.Fatalf("the first phase layered %d rows of the %d the exposed rows reach", len(r.queue), len(queue))
	}
	if got, want := r.Run().Size, MC21(a, nil).Size; got != want {
		t.Fatalf("reached %d, MC21 %d", got, want)
	}
}
