package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func coverageCheck(t *testing.T, n, workers int, policy Policy, chunk int) {
	t.Helper()
	seen := make([]int32, n)
	For(n, workers, policy, chunk, func(w, lo, hi int) {
		if lo < 0 || hi > n || lo > hi {
			t.Errorf("policy %v: bad range [%d,%d) for n=%d", policy, lo, hi, n)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("policy %v n=%d workers=%d chunk=%d: index %d covered %d times",
				policy, n, workers, chunk, i, c)
		}
	}
}

func TestForCoversAllIndicesOnce(t *testing.T) {
	for _, policy := range []Policy{Static, Dynamic, Guided} {
		for _, n := range []int{0, 1, 2, 7, 100, 1023, 4096} {
			for _, workers := range []int{1, 2, 3, 8, 33} {
				for _, chunk := range []int{1, 3, 64, 512} {
					coverageCheck(t, n, workers, policy, chunk)
				}
			}
		}
	}
}

func TestForCoverageProperty(t *testing.T) {
	f := func(n uint16, workers uint8, pol uint8, chunk uint8) bool {
		nn := int(n) % 5000
		w := int(workers)%16 + 1
		p := Policy(pol % 3)
		c := int(chunk)%100 + 1
		seen := make([]int32, nn)
		For(nn, w, p, c, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for _, v := range seen {
			if v != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestForSingleWorkerRunsInline(t *testing.T) {
	calls := 0
	For(100, 1, Dynamic, 10, func(w, lo, hi int) {
		calls++
		if w != 0 || lo != 0 || hi != 100 {
			t.Fatalf("single worker got (%d, %d, %d)", w, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("expected exactly one inline call, got %d", calls)
	}
}

func TestForWorkerIDsInRange(t *testing.T) {
	const workers = 7
	For(10000, workers, Guided, 16, func(w, lo, hi int) {
		if w < 0 || w >= workers {
			t.Errorf("worker id %d out of range", w)
		}
	})
}

func TestForZeroAndNegativeN(t *testing.T) {
	called := false
	For(0, 4, Static, 1, func(_, _, _ int) { called = true })
	For(-5, 4, Static, 1, func(_, _, _ int) { called = true })
	if called {
		t.Fatal("body called for empty range")
	}
}

func TestWorkersNormalization(t *testing.T) {
	if Workers(0) < 1 {
		t.Fatal("Workers(0) must be positive")
	}
	if Workers(-3) < 1 {
		t.Fatal("Workers(-3) must be positive")
	}
	if Workers(5) != 5 {
		t.Fatalf("Workers(5) = %d", Workers(5))
	}
}

func TestDoRunsEachWorkerOnce(t *testing.T) {
	const workers = 9
	var counts [workers]int32
	Default().Do(workers, func(w int) { atomic.AddInt32(&counts[w], 1) })
	for w, c := range counts {
		if c != 1 {
			t.Fatalf("worker %d ran %d times", w, c)
		}
	}
}

func TestReduceFloat64Sum(t *testing.T) {
	const n = 12345
	got := Default().ReduceFloat64(n, 8, Dynamic, 64, 0,
		func(_, lo, hi int, acc float64) float64 {
			for i := lo; i < hi; i++ {
				acc += float64(i)
			}
			return acc
		}, func(a, b float64) float64 { return a + b })
	want := float64(n*(n-1)) / 2
	if got != want {
		t.Fatalf("sum = %v want %v", got, want)
	}
}

func TestReduceFloat64Max(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	got := Default().ReduceFloat64(len(vals), 4, Guided, 2, 0,
		func(_, lo, hi int, acc float64) float64 {
			for i := lo; i < hi; i++ {
				if vals[i] > acc {
					acc = vals[i]
				}
			}
			return acc
		}, func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		})
	if got != 9 {
		t.Fatalf("max = %v want 9", got)
	}
}

func TestPolicyString(t *testing.T) {
	cases := map[Policy]string{Static: "static", Dynamic: "dynamic", Guided: "guided", Policy(99): "unknown"}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("Policy(%d).String() = %q want %q", p, p.String(), want)
		}
	}
}

func TestGuidedChunksShrink(t *testing.T) {
	// With one worker inline execution hides chunking; use 2 workers and
	// record chunk sizes — the first observed chunk must be larger than
	// the minimum for a big enough range.
	var maxChunk int64
	For(100000, 2, Guided, 4, func(_, lo, hi int) {
		sz := int64(hi - lo)
		for {
			old := atomic.LoadInt64(&maxChunk)
			if sz <= old || atomic.CompareAndSwapInt64(&maxChunk, old, sz) {
				break
			}
		}
	})
	if maxChunk <= 4 {
		t.Fatalf("guided scheduling never produced a large chunk (max %d)", maxChunk)
	}
}

func BenchmarkForDynamic(b *testing.B) {
	data := make([]float64, 1<<20)
	for i := range data {
		data[i] = float64(i)
	}
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		Default().ReduceFloat64(len(data), 0, Dynamic, 512, 0,
			func(_, lo, hi int, acc float64) float64 {
				for i := lo; i < hi; i++ {
					acc += data[i]
				}
				return acc
			}, func(a, b float64) float64 { return a + b })
	}
}
