package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolForCoversAllIndicesOnce(t *testing.T) {
	for _, width := range []int{1, 2, 4, 9} {
		p := NewPool(width)
		for _, policy := range []Policy{Static, Dynamic, Guided} {
			for _, n := range []int{0, 1, 7, 1023, 4096} {
				for _, workers := range []int{0, 1, 3, 8, 33} {
					seen := make([]int32, n)
					p.For(n, workers, policy, 64, func(w, lo, hi int) {
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&seen[i], 1)
						}
					})
					for i, c := range seen {
						if c != 1 {
							t.Fatalf("width=%d policy=%v n=%d workers=%d: index %d covered %d times",
								width, policy, n, workers, i, c)
						}
					}
				}
			}
		}
		p.Close()
	}
}

func TestPoolWorkersDefaultToWidth(t *testing.T) {
	p := NewPool(5)
	defer p.Close()
	if p.Width() != 5 {
		t.Fatalf("Width() = %d want 5", p.Width())
	}
	maxID := int32(-1)
	p.For(100000, 0, Static, 1, func(w, _, _ int) {
		for {
			old := atomic.LoadInt32(&maxID)
			if int32(w) <= old || atomic.CompareAndSwapInt32(&maxID, old, int32(w)) {
				break
			}
		}
	})
	if maxID != 4 {
		t.Fatalf("workers<=0 on width-5 pool used max worker id %d, want 4", maxID)
	}
}

func TestPoolDoRunsEachWorkerOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const workers = 9
	var counts [workers]int32
	p.Do(workers, func(w int) { atomic.AddInt32(&counts[w], 1) })
	for w, c := range counts {
		if c != 1 {
			t.Fatalf("worker %d ran %d times", w, c)
		}
	}
}

// TestPoolConcurrentForStress hammers one shared pool with parallel
// regions from many goroutines at once; under -race this doubles as the
// memory-model check for the dispatch/completion handoff.
func TestPoolConcurrentForStress(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const (
		goroutines = 8
		rounds     = 50
		n          = 2048
	)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			policy := Policy(g % 3)
			for r := 0; r < rounds; r++ {
				seen := make([]int32, n)
				p.For(n, 1+g%5, policy, 16, func(_, lo, hi int) {
					for i := lo; i < hi; i++ {
						seen[i]++
					}
				})
				for i, c := range seen {
					if c != 1 {
						t.Errorf("goroutine %d round %d: index %d covered %d times", g, r, i, c)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPoolSurvivesPanicInIssuerSlot: a panic escaping a body slot run by
// the issuer (slot 0) unwinds through dispatch to the caller; helper
// slots still signal their group via the deferred finish, so the pool
// keeps serving later regions instead of wedging.
func TestPoolSurvivesPanicInIssuerSlot(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the issuer's caller")
			}
		}()
		p.For(100, 4, Static, 1, func(w, _, _ int) {
			if w == 0 {
				panic("boom")
			}
		})
	}()
	var n atomic.Int64
	p.For(1000, 4, Dynamic, 16, func(_, lo, hi int) { n.Add(int64(hi - lo)) })
	if n.Load() != 1000 {
		t.Fatalf("pool wedged after recovered panic: covered %d of 1000", n.Load())
	}
}

// TestPoolNestedRegionsComplete pins the no-deadlock guarantee for
// regions issued from inside another region's body: every slot of the
// outer Do issues a full inner For on the same pool. With blocking task
// sends this configuration wedges permanently (all issuers stuck
// mid-send, nobody draining); the non-blocking send + steal-back design
// must complete it.
func TestPoolNestedRegionsComplete(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	const outer, innerN = 8, 64
	var total atomic.Int64
	for round := 0; round < 20; round++ {
		total.Store(0)
		p.Do(outer, func(_ int) {
			p.For(innerN, outer, Dynamic, 4, func(_, lo, hi int) {
				total.Add(int64(hi - lo))
			})
		})
		if got := total.Load(); got != outer*innerN {
			t.Fatalf("round %d: nested regions covered %d iterations, want %d", round, got, outer*innerN)
		}
	}
}

// TestPoolReduceMatchesSequential checks reductions on a caller-owned pool
// against the sequential answer.
func TestPoolReduceMatchesSequential(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	const n = 12345
	got := p.ReduceFloat64(n, 3, Dynamic, 64, 0,
		func(_, lo, hi int, acc float64) float64 {
			for i := lo; i < hi; i++ {
				acc += float64(i)
			}
			return acc
		}, func(a, b float64) float64 { return a + b })
	if want := float64(n*(n-1)) / 2; got != want {
		t.Fatalf("sum = %v want %v", got, want)
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(4)
	p.For(100, 4, Static, 1, func(_, _, _ int) {})
	p.Close()
	p.Close()
}

// TestPoolForMatchesSpawn checks that pool dispatch and the retained
// spawn-per-call baseline partition the iteration space identically for
// the static policy (the only policy with a scheduling-independent
// assignment of ranges to worker ids).
func TestPoolForMatchesSpawn(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const n, workers = 1000, 4
	collect := func(f func(int, int, Policy, int, func(int, int, int))) map[int][2]int {
		var mu sync.Mutex
		got := map[int][2]int{}
		f(n, workers, Static, 0, func(w, lo, hi int) {
			mu.Lock()
			got[w] = [2]int{lo, hi}
			mu.Unlock()
		})
		return got
	}
	a := collect(p.For)
	b := collect(forSpawn)
	if len(a) != len(b) {
		t.Fatalf("pool assigned %d ranges, spawn %d", len(a), len(b))
	}
	for w, r := range b {
		if a[w] != r {
			t.Fatalf("worker %d: pool range %v, spawn range %v", w, a[w], r)
		}
	}
}

// BenchmarkForOverhead measures the pure dispatch cost of a parallel
// region (empty body) for the pooled runtime against the historical
// spawn-per-call runtime. The matching pipeline issues dozens of regions
// per call, so this delta is on the critical path.
func BenchmarkForOverhead(b *testing.B) {
	body := func(_, _, _ int) {}
	for _, workers := range []int{2, 4, 8} {
		p := NewPool(workers)
		b.Run("pool/w="+itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.For(workers*512, workers, Static, 512, body)
			}
		})
		b.Run("spawn/w="+itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				forSpawn(workers*512, workers, Static, 512, body)
			}
		})
		p.Close()
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
