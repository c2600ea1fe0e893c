package bipartite

import (
	"fmt"
	"testing"
)

// The graft conformance suite: RefineGraft rides the Spec engine with
// exactly RefineExact's contract (size == sprank, König-certified) plus
// the engine's own guarantee — the refined matching is bit-identical at
// every pool width. These tests pin both through the public API, and the
// auto-selection that upgrades RefineExact to the graft engine on large
// instances.

// TestSpecRefineGraftReachesSprank mirrors TestSpecRefineExactReachesSprank
// for the graft engine: it completes any heuristic matching to maximum
// cardinality on the quality-suite families, and the result reports the
// engine that ran.
func TestSpecRefineGraftReachesSprank(t *testing.T) {
	families := qualityGraphs()
	families = append(families, struct {
		name string
		g    *Graph
	}{"road-1000", RoadNetwork(1000, 2.5, 4)})
	for _, tc := range families {
		sprank := tc.g.Sprank()
		for _, alg := range []Algorithm{AlgTwoSided, AlgKarpSipser, AlgCheapVertex} {
			res, err := tc.g.Match(Spec{Algorithm: alg, Seed: 3, Refine: RefineGraft}, &Options{ScalingIterations: 5})
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, alg, err)
			}
			if res.Matching.Size != sprank {
				t.Fatalf("%s/%s: graft-refined size %d want sprank %d", tc.name, alg, res.Matching.Size, sprank)
			}
			if err := tc.g.ValidateMatching(res.Matching); err != nil {
				t.Fatalf("%s/%s: %v", tc.name, alg, err)
			}
			if !tc.g.CertifyMaximum(res.Matching) {
				t.Fatalf("%s/%s: graft-refined matching fails the König certificate", tc.name, alg)
			}
			if !res.Refined || res.RefinedWith != RefineGraft {
				t.Fatalf("%s/%s: provenance (Refined %v, RefinedWith %v) want (true, graft)",
					tc.name, alg, res.Refined, res.RefinedWith)
			}
		}
	}
}

// TestSpecRefineGraftAutoSelect pins the size-based engine selection:
// Refine: exact runs Hopcroft–Karp below the graftAutoEdges threshold and
// the graft engine at or above it, RefinedWith reporting the engine that
// actually ran either way — and the two engines return the same (maximum)
// size, so the substitution is invisible except in provenance.
func TestSpecRefineGraftAutoSelect(t *testing.T) {
	g := RandomER(800, 800, 4, 19)
	sprank := g.Sprank()
	run := func() *MatchResult {
		res, err := g.Match(Spec{Seed: 1, Refine: RefineExact}, &Options{ScalingIterations: 5, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Matching.Size != sprank {
			t.Fatalf("refined size %d want sprank %d", res.Matching.Size, sprank)
		}
		return res
	}

	small := run() // well below the production threshold
	if small.RefinedWith != RefineExact {
		t.Fatalf("below threshold: RefinedWith %v want exact", small.RefinedWith)
	}

	defer func(old int) { graftAutoEdges = old }(graftAutoEdges)
	graftAutoEdges = 1 // every instance is now "large"
	large := run()
	if large.RefinedWith != RefineGraft {
		t.Fatalf("above threshold: RefinedWith %v want graft", large.RefinedWith)
	}
	if !large.Refined {
		t.Fatal("auto-selected graft run lost the Refined flag")
	}

	// The auto-selection also applies inside ensembles.
	res, err := g.Match(Spec{Seed: 1, Ensemble: 4, Refine: RefineExact}, &Options{ScalingIterations: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.RefinedWith != RefineGraft || res.Matching.Size != sprank {
		t.Fatalf("ensemble auto-select: (RefinedWith %v, size %d) want (graft, %d)",
			res.RefinedWith, res.Matching.Size, sprank)
	}
}

// TestSpecGraftBitIdenticalAcrossWidths gates the width contract of
// graft-refined Specs through the public API, at Workers: 1 and at pool
// widths 2 and 4: a single TwoSided run, the cheap warm start, and
// ensembles (whose candidates run at width 1) must return the same
// matching — mates, not just size — and the same provenance at every
// width. internal/exact's TestGraftBitIdenticalAcrossWidths covers graft
// itself from a fixed warm start.
func TestSpecGraftBitIdenticalAcrossWidths(t *testing.T) {
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"er-900", RandomER(900, 900, 4, 13)},
		{"road-800", RoadNetwork(800, 2.5, 9)}, // rank-deficient
	}
	specs := []Spec{
		{Algorithm: AlgTwoSided, Seed: 1, Refine: RefineGraft},
		{Algorithm: AlgCheapVertex, Seed: 2, Refine: RefineGraft},
		{Algorithm: AlgTwoSided, Seed: 3, Ensemble: 6, Refine: RefineGraft},
		{Algorithm: AlgKarpSipser, Seed: 4, Ensemble: 4, Refine: RefineGraft},
	}
	for _, tc := range graphs {
		for _, spec := range specs {
			want, err := tc.g.NewMatcher(&Options{ScalingIterations: 5, Workers: 1}).Run(spec)
			if err != nil {
				t.Fatalf("%s %+v sequential: %v", tc.name, spec, err)
			}
			wantMt := cloneMatching(want.Matching)
			for _, width := range []int{2, 4} {
				pool := NewPool(width)
				got, err := tc.g.NewMatcher(&Options{ScalingIterations: 5, Pool: pool}).Run(spec)
				if err != nil {
					t.Fatalf("%s %+v width %d: %v", tc.name, spec, width, err)
				}
				cmpMates(t, fmt.Sprintf("%s %+v graft width %d", tc.name, spec, width), got.Matching, wantMt)
				if got.Matching.Size != wantMt.Size || got.WinnerSeed != want.WinnerSeed || got.Candidates != want.Candidates ||
					got.HeuristicSize != want.HeuristicSize || got.RefinedWith != RefineGraft {
					t.Fatalf("%s %+v width %d: size and provenance (%d, %d, %d, %d, %v) want (%d, %d, %d, %d, graft)",
						tc.name, spec, width, got.Matching.Size, got.WinnerSeed, got.Candidates, got.HeuristicSize, got.RefinedWith,
						wantMt.Size, want.WinnerSeed, want.Candidates, want.HeuristicSize)
				}
				pool.Close()
			}
		}
	}
}

// TestSpecGraftEnsembleIncremental mirrors the ensemble-aware refinement
// gates for the graft engine: the incremental refiner saturates the
// structural bound early on a total-support graph, proves maximality below
// it on a rank-deficient one, and a Target bounds the refinement.
func TestSpecGraftEnsembleIncremental(t *testing.T) {
	full := FullyIndecomposable(600, 2, 7)
	res, err := full.Match(Spec{Seed: 1, Ensemble: 8, Refine: RefineGraft},
		&Options{ScalingIterations: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matching.Size != full.Sprank() {
		t.Fatalf("refined size %d want sprank %d", res.Matching.Size, full.Sprank())
	}
	if res.Candidates >= 8 {
		t.Fatalf("refinement saturated the structural bound but all %d candidates ran", res.Candidates)
	}
	replay, err := full.Match(Spec{Seed: res.WinnerSeed}, &Options{ScalingIterations: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if replay.Matching.Size != res.HeuristicSize {
		t.Fatalf("winner seed %d replays to size %d, but HeuristicSize is %d",
			res.WinnerSeed, replay.Matching.Size, res.HeuristicSize)
	}

	deficient := RoadNetwork(900, 2.5, 4)
	res, err = deficient.Match(Spec{Seed: 1, Ensemble: 8, Refine: RefineGraft},
		&Options{ScalingIterations: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matching.Size != deficient.Sprank() {
		t.Fatalf("deficient: refined size %d want sprank %d", res.Matching.Size, deficient.Sprank())
	}
	if !deficient.CertifyMaximum(res.Matching) {
		t.Fatal("deficient: graft-refined matching fails the König certificate")
	}

	g := RandomER(1000, 1000, 4, 23)
	res, err = g.Match(Spec{Seed: 1, Ensemble: 8, Refine: RefineGraft, Target: 0.5},
		&Options{ScalingIterations: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := (g.SprankUpperBound() + 1) / 2; res.Matching.Size < want {
		t.Fatalf("refined target run: size %d below target bound %d", res.Matching.Size, want)
	}
	if res.Candidates != 1 {
		t.Fatalf("refined target 0.5: ran %d candidates, want 1", res.Candidates)
	}
	if err := g.ValidateMatching(res.Matching); err != nil {
		t.Fatal(err)
	}
}
