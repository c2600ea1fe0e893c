package bipartite

import (
	"strings"
	"testing"

	"repro/internal/watchdog"
)

// This file pins the cluster fan-out primitive at the library level: a
// best-of-K Spec split into disjoint seed sub-ranges across fresh
// Matchers, reduced with the router's rule (largest size — heaviest
// weight for auction — wins, ties toward the smallest winner seed), must
// reproduce the single-process sweep bit for bit. cmd/matchrouter's e2e
// suite re-checks the same identity over HTTP; this is the engine-level
// gate it rests on.

// reduceSubRanges applies the router's associative reduction over
// sub-range results delivered in seed order: strict improvement on the
// objective, ties keep the earlier (smaller-seed) winner.
func reduceSubRanges(results []*MatchResult, weighted bool) *MatchResult {
	best := results[0]
	for _, r := range results[1:] {
		if weighted {
			if r.MatchedWeight > best.MatchedWeight {
				best = r
			}
		} else if r.Matching.Size > best.Matching.Size {
			best = r
		}
	}
	return best
}

func sameMates(t *testing.T, label string, a, b *Matching) {
	t.Helper()
	if a.Size != b.Size {
		t.Fatalf("%s: size %d vs %d", label, a.Size, b.Size)
	}
	for i := range a.RowMate {
		if a.RowMate[i] != b.RowMate[i] {
			t.Fatalf("%s: row %d mate %d vs %d", label, i, a.RowMate[i], b.RowMate[i])
		}
	}
	for j := range a.ColMate {
		if a.ColMate[j] != b.ColMate[j] {
			t.Fatalf("%s: col %d mate %d vs %d", label, j, a.ColMate[j], b.ColMate[j])
		}
	}
}

// TestSeedSubRangeBitIdentity: best-of-32 fanned out as 4 disjoint
// sub-ranges of 8 on fresh Matchers (one per "replica") and reduced must
// return the same winner seed, mates, sizes and total candidate count as
// the single-process sweep, for every cardinality heuristic family.
func TestSeedSubRangeBitIdentity(t *testing.T) {
	g := RandomER(400, 380, 4, 11)
	const K, parts = 32, 4
	for _, alg := range []Algorithm{AlgTwoSided, AlgOneSided, AlgKarpSipser, AlgCheapVertex} {
		spec := Spec{Algorithm: alg, Seed: 100, Ensemble: K}
		full, err := g.NewMatcher(nil).Run(spec)
		if err != nil {
			t.Fatalf("%v full sweep: %v", alg, err)
		}

		results := make([]*MatchResult, parts)
		candidates := 0
		for p := 0; p < parts; p++ {
			sub := spec
			sub.SeedOffset = p * (K / parts)
			sub.SeedCount = K / parts
			// A fresh Matcher per sub-range: each replica computes its own
			// scaling, which Sinkhorn–Knopp makes a pure function of the graph.
			r, err := g.NewMatcher(nil).Run(sub)
			if err != nil {
				t.Fatalf("%v sub-range %d: %v", alg, p, err)
			}
			candidates += r.Candidates
			results[p] = r
		}
		if candidates != K {
			t.Fatalf("%v: sub-ranges ran %d candidates, want %d", alg, candidates, K)
		}
		best := reduceSubRanges(results, false)
		if best.WinnerSeed != full.WinnerSeed {
			t.Fatalf("%v: reduced winner seed %d, want %d", alg, best.WinnerSeed, full.WinnerSeed)
		}
		if best.HeuristicSize != full.HeuristicSize {
			t.Fatalf("%v: reduced heuristic size %d, want %d", alg, best.HeuristicSize, full.HeuristicSize)
		}
		sameMates(t, alg.String(), best.Matching, full.Matching)
	}
}

// TestSeedSubRangeAuction: the same fan-out identity for the weighted
// objective — sub-range auction ensembles share the seed-free warm start
// (Prepare is a pure function of the graph), so the heaviest-weight /
// smallest-seed reduction over slices equals the single-process sweep.
func TestSeedSubRangeAuction(t *testing.T) {
	g := RandomER(120, 110, 5, 3).RandomWeights(WeightSkewed, 9)
	const K, parts = 32, 4
	spec := Spec{Algorithm: AlgAuction, Seed: 40, Ensemble: K, Epsilon: 0.1}
	full, err := g.NewMatcher(nil).Run(spec)
	if err != nil {
		t.Fatalf("full sweep: %v", err)
	}

	results := make([]*MatchResult, parts)
	candidates := 0
	for p := 0; p < parts; p++ {
		sub := spec
		sub.SeedOffset = p * (K / parts)
		sub.SeedCount = K / parts
		r, err := g.NewMatcher(nil).Run(sub)
		if err != nil {
			t.Fatalf("sub-range %d: %v", p, err)
		}
		candidates += r.Candidates
		results[p] = r
	}
	if candidates != K {
		t.Fatalf("sub-ranges ran %d candidates, want %d", candidates, K)
	}
	best := reduceSubRanges(results, true)
	if best.WinnerSeed != full.WinnerSeed {
		t.Fatalf("reduced winner seed %d, want %d", best.WinnerSeed, full.WinnerSeed)
	}
	if best.MatchedWeight != full.MatchedWeight {
		t.Fatalf("reduced weight %v, want %v", best.MatchedWeight, full.MatchedWeight)
	}
	sameMates(t, "auction", best.Matching, full.Matching)

	// A width-1 sub-range must still go through the ensemble clone path:
	// its result is the corresponding candidate of the full sweep, not a
	// differently-warm-started single run.
	one := spec
	one.SeedOffset, one.SeedCount = 0, 1
	r1, err := g.NewMatcher(nil).Run(one)
	if err != nil {
		t.Fatal(err)
	}
	if r1.WinnerSeed != spec.Seed {
		t.Fatalf("count-1 sub-range winner seed %d, want %d", r1.WinnerSeed, spec.Seed)
	}
	if r1.Candidates != 1 {
		t.Fatalf("count-1 sub-range ran %d candidates, want 1", r1.Candidates)
	}
}

// TestSeedSubRangeSequentialParity: the sub-range winner is schedule
// independent — the serial sweep of a Workers: 1 session and the pooled
// fan-out agree.
func TestSeedSubRangeSequentialParity(t *testing.T) {
	g := RandomER(300, 300, 4, 5)
	sub := Spec{Algorithm: AlgTwoSided, Seed: 7, Ensemble: 16, SeedOffset: 4, SeedCount: 8}
	a, err := g.Match(sub, &Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Match(sub, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.WinnerSeed != b.WinnerSeed || a.Candidates != b.Candidates {
		t.Fatalf("schedules disagree: winner %d/%d candidates %d/%d",
			a.WinnerSeed, b.WinnerSeed, a.Candidates, b.Candidates)
	}
	sameMates(t, "parity", a.Matching, b.Matching)
}

// TestSeedSubRangeValidate is the error table for the sub-range rules.
func TestSeedSubRangeValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error, "" for valid
	}{
		{"full-range-zero-value", Spec{Ensemble: 8}, ""},
		{"valid-slice", Spec{Ensemble: 8, SeedOffset: 4, SeedCount: 4}, ""},
		{"valid-auction-slice", Spec{Algorithm: AlgAuction, Ensemble: 8, SeedCount: 2}, ""},
		{"negative-offset", Spec{Ensemble: 8, SeedOffset: -1, SeedCount: 2}, "negative seed offset"},
		{"offset-without-count", Spec{Ensemble: 8, SeedOffset: 2}, "positive seed count"},
		{"negative-count", Spec{Ensemble: 8, SeedCount: -2}, "positive seed count"},
		{"no-ensemble", Spec{SeedCount: 2}, "requires an ensemble"},
		{"single-run", Spec{Ensemble: 1, SeedCount: 1}, "requires an ensemble"},
		{"overflows-interval", Spec{Ensemble: 8, SeedOffset: 6, SeedCount: 4}, "exceeds the ensemble"},
		{"refine-split", Spec{Ensemble: 8, SeedCount: 4, Refine: RefineExact}, "refine none"},
		{"target-split", Spec{Ensemble: 8, SeedCount: 4, Target: 0.9}, "refine none"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestSeedSubRangeDegrade: the overload ladder caps the slice's count —
// not the full interval's Ensemble — so a degraded sub-range spec stays
// valid and the marker records what was dropped.
func TestSeedSubRangeDegrade(t *testing.T) {
	in := Spec{Ensemble: 32, SeedOffset: 24, SeedCount: 8}
	got, mark := degradeSpec(in, watchdog.Degraded)
	if mark != "seed_count:8->2" {
		t.Fatalf("marker %q, want %q", mark, "seed_count:8->2")
	}
	if got.Ensemble != 32 || got.SeedOffset != 24 || got.SeedCount != 2 {
		t.Fatalf("degraded spec %+v, want ensemble 32 offset 24 count 2", got)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("degraded sub-range spec invalid: %v", err)
	}
	if _, mark := degradeSpec(Spec{Ensemble: 32, SeedCount: 2}, watchdog.Degraded); mark != "" {
		t.Fatalf("count already under cap degraded anyway: %q", mark)
	}
	got, _ = degradeSpec(in, watchdog.Shedding)
	if got.SeedCount != 1 {
		t.Fatalf("shedding cap %d, want 1", got.SeedCount)
	}
}
