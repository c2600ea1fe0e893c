package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/sparse"
)

// TestAliasBuildOncePerGraph proves the counter gate: one Session draws
// alias samples across many seeds and only ever builds its tables once,
// rebuilding exactly once more after Rebind and after SetScaling.
func TestAliasBuildOncePerGraph(t *testing.T) {
	var builds atomic.Int64
	hook := func() { builds.Add(1) }
	aliasBuildHook.Store(&hook)
	defer aliasBuildHook.Store(nil)

	a := gen.ERAvgDeg(500, 500, 4, 3)
	at := a.Transpose()
	opt := Options{Workers: 1, Policy: par.Dynamic, KSPolicy: par.Guided, Alias: true}
	s := NewSession(a, at, opt)
	for seed := uint64(1); seed <= 10; seed++ {
		s.TwoSided(seed)
		s.OneSided(seed)
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("10 sampling calls built alias tables %d times; want 1", got)
	}

	b := gen.ERAvgDeg(400, 600, 3, 9)
	s.Rebind(b, b.Transpose())
	s.TwoSided(1)
	s.TwoSided(2)
	if got := builds.Load(); got != 2 {
		t.Fatalf("after Rebind: %d builds; want 2", got)
	}

	_, sc := scaledSK(t, b, 3)
	s.SetScaling(sc.DR, sc.DC, sc.RSum, sc.CSum)
	s.OneSided(1)
	s.OneSided(2)
	if got := builds.Load(); got != 3 {
		t.Fatalf("after SetScaling: %d builds; want 3", got)
	}
}

// TestOneSidedAliasBuildsRowTableOnly: OneSided draws only rows, so on a
// session bound with a transpose its alias draw builds the row table
// alone, and its claims equal the serial reference's over that table. A
// later TwoSided call adds the column table and matches exactly what a
// fresh session, which builds both tables at once, matches.
func TestOneSidedAliasBuildsRowTableOnly(t *testing.T) {
	a := gen.ERAvgDeg(1500, 1300, 4, 21)
	at, sc := scaledSK(t, a, 5)
	opt := Options{Workers: 1, Policy: par.Dynamic, Alias: true}
	s := NewSession(a, at, opt)
	s.SetScaling(sc.DR, sc.DC, sc.RSum, sc.CSum)
	var rows aliasTable
	rows.build(a, sc.DC)
	for _, seed := range []uint64{1, 2, 3} {
		want := CMatchToMatching(a.RowsN, oneSidedReference(a, sc.DC, sc.RSum, &rows, seed))
		cmpMatching(t, "OneSided", s.OneSided(seed), want)
	}
	if s.aliasAT.prob != nil {
		t.Fatal("OneSided built the column alias table")
	}
	fresh := NewSession(a, at, opt)
	fresh.SetScaling(sc.DR, sc.DC, sc.RSum, sc.CSum)
	cmpMatching(t, "TwoSided after OneSided", s.TwoSided(5).Matching, fresh.TwoSided(5).Matching)
	if s.aliasAT.prob == nil {
		t.Fatal("TwoSided drew columns without their alias table")
	}
}

// TestAliasDeterministicAcrossWorkerCounts pins the alias kernels'
// bit-identity across worker counts — per-vertex indexed RNG streams, so
// the schedule cannot leak in — for the row choices and for TwoSided's
// and OneSided's whole matchings.
func TestAliasDeterministicAcrossWorkerCounts(t *testing.T) {
	a := gen.ERAvgDeg(2000, 2000, 5, 17)
	at := a.Transpose()
	var ref []int32
	var refTwo, refOne *exact.Matching
	for _, w := range []int{1, 2, 4} {
		opt := Options{Workers: w, Policy: par.Dynamic, KSPolicy: par.Guided, Alias: true}
		s := NewSession(a, at, opt)
		two := cloneMatching(s.TwoSided(7).Matching)
		choices := append([]int32(nil), s.cg.Choice[:a.RowsN]...)
		one := s.OneSided(7)
		if w == 1 {
			ref, refTwo, refOne = choices, two, cloneMatching(one)
			continue
		}
		for i := range ref {
			if choices[i] != ref[i] {
				t.Fatalf("w=%d: row %d's choice differs from width 1", w, i)
			}
		}
		cmpMatching(t, "alias two-sided", two, refTwo)
		cmpMatching(t, "alias one-sided", one, refOne)
	}
}

// TestAliasFollowsScaledDistribution mirrors the prefix-walk kernel's
// distribution gate: with dc skewed to (1, 1e-9) the alias draw must
// almost always pick column 0, proving the tables bake the scaling in.
func TestAliasFollowsScaledDistribution(t *testing.T) {
	a := sparse.FromDense([][]int{{1, 1}})
	at := a.Transpose()
	dr := []float64{1}
	dc := []float64{1, 1e-9}
	count0 := 0
	for seed := uint64(1); seed <= 200; seed++ {
		s := NewSession(a, at, Options{Workers: 1, Policy: par.Dynamic, KSPolicy: par.Guided, Alias: true})
		s.SetScaling(dr, dc, nil, nil)
		if s.OneSided(seed).ColMate[0] == 0 {
			count0++
		}
	}
	if count0 < 199 {
		t.Fatalf("alias sampling chose col 0 only %d/200 times", count0)
	}
}

// TestAliasUniformDistribution: without scaling the alias draw is uniform
// over the row, like the default kernel.
func TestAliasUniformDistribution(t *testing.T) {
	a := sparse.FromDense([][]int{{1, 1, 1, 1}})
	at := a.Transpose()
	counts := make([]int, 4)
	s := NewSession(a, at, Options{Workers: 1, Policy: par.Dynamic, KSPolicy: par.Guided, Alias: true})
	// ColMate is column-indexed; count which column got claimed per seed.
	for seed := uint64(1); seed <= 4000; seed++ {
		cm := s.OneSided(seed).ColMate
		for j := range cm {
			if cm[j] != NIL {
				counts[j]++
			}
		}
	}
	for j, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("column %d chosen %d/4000 times; expected ≈1000", j, c)
		}
	}
}

// TestAliasMatchesExpectedSizes: alias sampling preserves the heuristics'
// quality on a mid-sized instance (sizes within a few percent of the
// default kernels' — same distribution, different stream consumption).
func TestAliasMatchesExpectedSizes(t *testing.T) {
	a := gen.ERAvgDeg(3000, 3000, 5, 23)
	at := a.Transpose()
	base := NewSession(a, at, Options{Workers: 2, Policy: par.Dynamic, KSPolicy: par.Guided})
	alias := NewSession(a, at, Options{Workers: 2, Policy: par.Dynamic, KSPolicy: par.Guided, Alias: true})
	rb := base.TwoSided(5)
	ra := alias.TwoSided(5)
	lo := rb.Matching.Size * 95 / 100
	hi := rb.Matching.Size * 105 / 100
	if ra.Matching.Size < lo || ra.Matching.Size > hi {
		t.Fatalf("alias TwoSided size %d outside ±5%% of default %d", ra.Matching.Size, rb.Matching.Size)
	}
}
