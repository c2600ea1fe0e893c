package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/scale"
	"repro/internal/sparse"
)

func scaledSK(t *testing.T, a *sparse.CSR, iters int) (*sparse.CSR, *scale.Result) {
	t.Helper()
	at := a.Transpose()
	res, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: iters, Workers: 4, Policy: par.Dynamic})
	if err != nil {
		t.Fatal(err)
	}
	return at, res
}

func cmpI32s(t *testing.T, what string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("%s: index %d differs: %d vs %d", what, k, got[k], want[k])
		}
	}
}

// TestSamplingWithTotalsBitIdentical pins the fused fast path: feeding the
// scaling stage's exported row/column totals into the samplers must
// reproduce the exact choices of the on-the-fly sum, for every worker
// count and policy — the totals are the same floating-point values the
// sum pass would recompute. TwoSided's full match array must equal the
// one-worker run's, with and without the totals, at every width: the
// choices do not depend on the schedule, and Karp–Sipser runs on the
// calling goroutine.
func TestSamplingWithTotalsBitIdentical(t *testing.T) {
	mats := map[string]*sparse.CSR{
		"er": gen.ERAvgDeg(1500, 1500, 5, 21),
		"pl": gen.PowerLaw(1200, 2, 1.8, 300, 5),
	}
	for name, a := range mats {
		at, sc := scaledSK(t, a, 5)
		ref := TwoSided(a, at, sc.DR, sc.DC, Options{Workers: 1, Policy: par.Dynamic, Chunk: 128, Seed: 7})
		for _, w := range []int{1, 2, 4, 9} {
			for _, pol := range []par.Policy{par.Static, par.Dynamic, par.Guided} {
				plain := Options{Workers: w, Policy: pol, Chunk: 128, KSPolicy: par.Guided, Seed: 7}
				fast := plain
				fast.RowTotals, fast.ColTotals = sc.RSum, sc.CSum

				cmpI32s(t, name+" row choices",
					SampleRowChoices(a, sc.DR, sc.DC, fast),
					SampleRowChoices(a, sc.DR, sc.DC, plain))
				cmpI32s(t, name+" col choices",
					SampleColChoices(at, sc.DR, sc.DC, fast),
					SampleColChoices(at, sc.DR, sc.DC, plain))

				rf := TwoSided(a, at, sc.DR, sc.DC, fast)
				rp := TwoSided(a, at, sc.DR, sc.DC, plain)
				what := fmt.Sprintf("%s w=%d %v", name, w, pol)
				cmpI32s(t, what+" two-sided match", rf.Match, rp.Match)
				cmpI32s(t, what+" two-sided match vs one worker", rf.Match, ref.Match)
				if rf.Matching.Size != rp.Matching.Size {
					t.Fatalf("%s: fused size %d vs plain %d", name, rf.Matching.Size, rp.Matching.Size)
				}
			}
		}
	}
}

// TestTwoSidedDeterministicAcrossPoolsAndWorkers asserts that a fixed seed
// gives one matching at every worker count, policy and pool width: the
// full match array, and hence the size, equals the one-worker run's.
func TestTwoSidedDeterministicAcrossPoolsAndWorkers(t *testing.T) {
	a := gen.FullyIndecomposable(2000, 3, 13)
	at, sc := scaledSK(t, a, 5)
	base := Options{Workers: 1, Policy: par.Dynamic, KSPolicy: par.Guided, Seed: 17,
		RowTotals: sc.RSum, ColTotals: sc.CSum}
	want := TwoSided(a, at, sc.DR, sc.DC, base)
	for _, width := range []int{2, 5} {
		pool := par.NewPool(width)
		for _, w := range []int{1, 2, 4, 16} {
			for _, pol := range []par.Policy{par.Static, par.Dynamic, par.Guided} {
				opt := base
				opt.Workers, opt.Policy, opt.Pool = w, pol, pool
				got := TwoSided(a, at, sc.DR, sc.DC, opt)
				cmpI32s(t, fmt.Sprintf("width=%d w=%d %v match", width, w, pol), got.Match, want.Match)
				if got.Matching.Size != want.Matching.Size {
					t.Fatalf("width=%d w=%d %v: size %d want %d",
						width, w, pol, got.Matching.Size, want.Matching.Size)
				}
			}
		}
		pool.Close()
	}
}

// TestOneSidedSizeStableAcrossPools: every row's draw is deterministic and
// the rows claim their columns in index order on the calling goroutine,
// so the cmatch array — which row keeps each column, not only the set of
// chosen columns and the size — is identical however the sampling loop is
// scheduled.
func TestOneSidedSizeStableAcrossPools(t *testing.T) {
	a := gen.ERAvgDeg(3000, 3000, 6, 2)
	_, sc := scaledSK(t, a, 5)
	base := Options{Workers: 1, Policy: par.Dynamic, Seed: 5, RowTotals: sc.RSum}
	wantC, want := OneSided(a, sc.DR, sc.DC, base)
	pool := par.NewPool(3)
	defer pool.Close()
	for _, w := range []int{1, 3, 8} {
		for _, pol := range []par.Policy{par.Static, par.Dynamic, par.Guided} {
			opt := base
			opt.Workers, opt.Policy, opt.Pool = w, pol, pool
			gotC, size := OneSided(a, sc.DR, sc.DC, opt)
			if size != want {
				t.Fatalf("w=%d %v: size %d want %d", w, pol, size, want)
			}
			cmpI32s(t, fmt.Sprintf("w=%d %v cmatch", w, pol), gotC, wantC)
		}
	}
}

// TestConcurrentMatchingOnSharedPool runs whole TwoSided calls from
// several goroutines against one pool; every caller must land the same
// matching as the solo run, which equals the one-worker run. Under -race
// this exercises the dispatch path end to end.
func TestConcurrentMatchingOnSharedPool(t *testing.T) {
	a := gen.ERAvgDeg(1000, 1000, 5, 31)
	at, sc := scaledSK(t, a, 3)
	pool := par.NewPool(4)
	defer pool.Close()
	opt := Options{Workers: 4, Policy: par.Dynamic, KSPolicy: par.Guided, Seed: 3,
		Pool: pool, RowTotals: sc.RSum, ColTotals: sc.CSum}
	want := TwoSided(a, at, sc.DR, sc.DC, opt)
	one := opt
	one.Workers = 1
	cmpI32s(t, "solo run vs one worker", want.Match, TwoSided(a, at, sc.DR, sc.DC, one).Match)
	const callers = 6
	results := make([]*Result, callers)
	done := make(chan int, callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			results[c] = TwoSided(a, at, sc.DR, sc.DC, opt)
			done <- c
		}(c)
	}
	for range [callers]struct{}{} {
		<-done
	}
	for c, r := range results {
		if r.Matching.Size != want.Matching.Size {
			t.Fatalf("caller %d: size %d want %d", c, r.Matching.Size, want.Matching.Size)
		}
		cmpI32s(t, fmt.Sprintf("caller %d match", c), r.Match, want.Match)
	}
}
