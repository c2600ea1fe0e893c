package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/par"
)

// TestSessionReuseBitIdentical runs one Session through many seeds and
// rebinds and checks every call reproduces the one-shot functions' whole
// matching bit for bit, at one worker and at four.
func TestSessionReuseBitIdentical(t *testing.T) {
	a := gen.ERAvgDeg(1200, 1400, 4, 11)
	b := gen.PowerLaw(900, 2, 1.8, 200, 7) // different shape: forces regrow
	at, bt := a.Transpose(), b.Transpose()

	for _, w := range []int{1, 4} {
		opt := Options{Workers: w, Policy: par.Dynamic, KSPolicy: par.Guided}
		_, scA := scaledSK(t, a, 5)
		_, scB := scaledSK(t, b, 5)

		s := NewSession(a, at, opt)
		s.SetScaling(scA.DR, scA.DC, scA.RSum, scA.CSum)
		for _, seed := range []uint64{1, 7, 7, 42} {
			o := opt
			o.Seed, o.RowTotals, o.ColTotals = seed, scA.RSum, scA.CSum
			want := TwoSided(a, at, scA.DR, scA.DC, o)
			got := s.TwoSided(seed)
			cmpMatching(t, fmt.Sprintf("w=%d seed=%d session", w, seed), got.Matching, want.Matching)
		}

		// Rebind to a different graph, then back: buffers are recycled but
		// results must still match fresh runs.
		s.Rebind(b, bt)
		s.SetScaling(scB.DR, scB.DC, scB.RSum, scB.CSum)
		o := opt
		o.Seed, o.RowTotals, o.ColTotals = 3, scB.RSum, scB.CSum
		want := TwoSided(b, bt, scB.DR, scB.DC, o)
		got := s.TwoSided(3)
		cmpMatching(t, fmt.Sprintf("w=%d rebound", w), got.Matching, want.Matching)

		// OneSided on the rebound session: the whole matching against the
		// one-shot cmatch.
		s.Rebind(a, at)
		s.SetScaling(scA.DR, scA.DC, scA.RSum, scA.CSum)
		o = opt
		o.Seed, o.RowTotals = 9, scA.RSum
		wantC, _ := OneSided(a, scA.DR, scA.DC, o)
		cmpMatching(t, fmt.Sprintf("w=%d one-sided", w), s.OneSided(9), CMatchToMatching(a.RowsN, wantC))
	}
}

// TestSessionChoiceGraphMatchesSampledChoices holds a TwoSided session's
// choice graph to the one NewChoiceGraph assembles from SampleRowChoices
// and SampleColChoices at the same seed: the same draws, and the same
// self-loop ids for empty rows and columns.
func TestSessionChoiceGraphMatchesSampledChoices(t *testing.T) {
	a := gen.ERAvgDeg(300, 400, 1.5, 3)
	at, dr, dc := scaled(t, a, 3)
	if a.EmptyRows() == 0 || at.EmptyRows() == 0 {
		t.Fatal("the instance needs empty rows and empty columns")
	}
	for _, sc := range []struct {
		name   string
		dr, dc []float64
	}{{"uniform", nil, nil}, {"scaled", dr, dc}} {
		for _, w := range []int{1, 3} {
			for seed := uint64(1); seed <= 3; seed++ {
				o := opts(w, seed)
				want := NewChoiceGraph(a.RowsN, a.ColsN,
					SampleRowChoices(a, sc.dr, sc.dc, o), SampleColChoices(at, sc.dr, sc.dc, o))
				got := TwoSided(a, at, sc.dr, sc.dc, o).Graph
				what := fmt.Sprintf("%s w=%d seed %d", sc.name, w, seed)
				if got.N != want.N || got.M != want.M {
					t.Fatalf("%s: shape %dx%d want %dx%d", what, got.N, got.M, want.N, want.M)
				}
				cmpI32s(t, what+" Choice", got.Choice, want.Choice)
			}
		}
	}
}
