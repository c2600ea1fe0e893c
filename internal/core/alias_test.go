package core

import (
	"sync/atomic"
	"testing"

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

// TestAliasDeterministicAcrossWorkerCounts pins the alias kernels'
// bit-identity across worker counts — per-vertex indexed RNG streams, so
// the schedule cannot leak in — for the row choices and for TwoSided's
// and OneSided's whole matchings.
func TestAliasDeterministicAcrossWorkerCounts(t *testing.T) {
	a := gen.ERAvgDeg(2000, 2000, 5, 17)
	at := a.Transpose()
	var ref, refMatch, refC []int32
	for _, w := range []int{1, 2, 4} {
		opt := Options{Workers: w, Policy: par.Dynamic, KSPolicy: par.Guided, Alias: true}
		s := NewSession(a, at, opt)
		match := append([]int32(nil), s.TwoSided(7).Match...)
		choices := append([]int32(nil), s.cg.Choice[:a.RowsN]...)
		cmatch, _ := s.OneSided(7)
		if w == 1 {
			ref, refMatch, refC = choices, match, append([]int32(nil), cmatch...)
			continue
		}
		for i := range ref {
			if choices[i] != ref[i] {
				t.Fatalf("w=%d: row %d's choice differs from width 1", w, i)
			}
		}
		cmpI32s(t, "alias two-sided match", match, refMatch)
		cmpI32s(t, "alias one-sided cmatch", cmatch, refC)
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
		cmatch, _ := s.OneSided(seed)
		if cmatch[0] == 0 {
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
	// cmatch is column-indexed; count which column got claimed per seed.
	for seed := uint64(1); seed <= 4000; seed++ {
		cm, _ := s.OneSided(seed)
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
