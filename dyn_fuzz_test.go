package bipartite

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// This file is the differential mutation-fuzz oracle — the correctness
// centerpiece of the dynamic-session work. A seeded trace generator
// drives random mutation batches over the adversarial generator
// families and cross-checks, after every batch:
//
//	(a) matching-validity invariants (mates consistent, every matched
//	    pair an edge of the mutated graph, size correct),
//	(b) the exact session's maintained size against a fresh sprank
//	    oracle computed on the mutated snapshot,
//	(c) bit-identity of the maintained matchings across pool widths
//	    1/2/4 (the determinism contract under -race), and
//	(d) the session's edge bookkeeping against a map-based mirror.
//
// The heuristic quality bounds under mutation — the statistical
// counterpart of (b) for Refine: None sessions — are gated separately
// by TestDynFuzzHeuristicQuality.

// dynFuzzBatches returns the per-family batch count: the acceptance
// criterion is ≥ 200 seeded batches per generator family; -short keeps
// the inner-loop suites fast.
func dynFuzzBatches() int {
	if testing.Short() {
		return 50
	}
	return 200
}

// dynFuzzFamilies spans the adversarial generator families: structural
// rank deficiency (augmenting paths must route around a deficient
// column space), the long-thin-path worst case of augmentation depth,
// power-law degree skew, a structured mesh, and Erdős–Rényi.
func dynFuzzFamilies() []struct {
	name string
	g    *Graph
} {
	return []struct {
		name string
		g    *Graph
	}{
		{"rankdeficient", newGraph(gen.RankDeficient(80, 12, 3.0, 5))},
		{"longthinpath", newGraph(gen.LongThinPath(90))},
		{"skeweddegree", newGraph(gen.SkewedDegree(96, 80, 3.0, 1.5, 9))},
		{"grid2d", Grid2D(9, 9)},
		{"er", RandomER(85, 75, 3.0, 17)},
	}
}

// dynMirror tracks the expected edge set of a trace — the trivial
// reference implementation the sessions are differenced against.
type dynMirror struct {
	set  map[[2]int]bool
	list [][2]int
}

func newDynMirror(g *Graph) *dynMirror {
	m := &dynMirror{set: make(map[[2]int]bool)}
	for i := 0; i < g.Rows(); i++ {
		for _, j := range g.Neighbors(i) {
			e := [2]int{i, int(j)}
			m.set[e] = true
			m.list = append(m.list, e)
		}
	}
	return m
}

// apply folds one batch into the mirror with the session's semantics:
// deletes first, then inserts, no-ops skipped.
func (m *dynMirror) apply(inserts, deletes [][2]int) (ins, del int) {
	for _, e := range deletes {
		if m.set[e] {
			delete(m.set, e)
			del++
		}
	}
	for _, e := range inserts {
		if !m.set[e] {
			m.set[e] = true
			ins++
		}
	}
	// Rebuild the sampling list lazily only when it drifted too far; a
	// simple full rebuild keeps the generator honest and is cheap at
	// fuzz sizes.
	m.list = m.list[:0]
	for e := range m.set {
		m.list = append(m.list, e)
	}
	return ins, del
}

// dynFuzzBatch generates one mutation batch: deletions sampled from the
// live edge set (plus a probable miss), insertions sampled uniformly
// from the vertex grid (duplicates and present edges included on
// purpose), and every eighth batch deliberately neutral.
func dynFuzzBatch(rng *rand.Rand, m *dynMirror, rows, cols, batch int) (inserts, deletes [][2]int) {
	if batch%8 == 7 {
		// Neutral batch: delete an absent edge, re-insert a present one.
		if len(m.list) > 0 {
			e := m.list[rng.Intn(len(m.list))]
			inserts = append(inserts, e)
		}
		deletes = append(deletes, [2]int{rng.Intn(rows), cols - 1})
		if m.set[deletes[0]] {
			deletes = nil
		}
		return inserts, deletes
	}
	for k, kn := 0, rng.Intn(4); k < kn && len(m.list) > 0; k++ {
		deletes = append(deletes, m.list[rng.Intn(len(m.list))])
	}
	if rng.Intn(3) == 0 { // probable miss
		deletes = append(deletes, [2]int{rng.Intn(rows), rng.Intn(cols)})
	}
	for k, kn := 0, rng.Intn(4); k < kn; k++ {
		e := [2]int{rng.Intn(rows), rng.Intn(cols)}
		inserts = append(inserts, e)
		if rng.Intn(4) == 0 { // duplicate inside the batch
			inserts = append(inserts, e)
		}
	}
	return inserts, deletes
}

// TestDynFuzzDifferential is the oracle suite: per family, exact and
// heuristic sessions at pool widths 1/2/4 absorb the same seeded trace;
// after every batch the cross-width results must agree bit for bit, the
// maintained matchings must validate against the mutated snapshots, the
// edge bookkeeping must match the mirror, and the exact sessions'
// maintained size must equal a fresh sprank oracle.
func TestDynFuzzDifferential(t *testing.T) {
	widths := []int{1, 2, 4}
	for fi, family := range dynFuzzFamilies() {
		family := family
		seed := uint64(1000*fi + 1)
		t.Run(family.name, func(t *testing.T) {
			t.Parallel()
			g := family.g
			var exacts, heurs []*DynSession
			for _, w := range widths {
				pool := NewPool(w)
				defer pool.Close()
				opt := &Options{Workers: w, Pool: pool}
				se, err := g.NewDynSession(Spec{Algorithm: AlgTwoSided, Seed: 7, Refine: RefineExact}, opt)
				if err != nil {
					t.Fatal(err)
				}
				sh, err := g.NewDynSession(Spec{Algorithm: AlgTwoSided, Seed: 7}, opt)
				if err != nil {
					t.Fatal(err)
				}
				exacts = append(exacts, se)
				heurs = append(heurs, sh)
			}
			rng := rand.New(rand.NewSource(int64(seed)))
			mirror := newDynMirror(g)
			rows, cols := g.Rows(), g.Cols()
			for b := 0; b < dynFuzzBatches(); b++ {
				inserts, deletes := dynFuzzBatch(rng, mirror, rows, cols, b)
				wantIns, wantDel := mirror.apply(inserts, deletes)
				ref, err := exacts[0].Apply(inserts, deletes)
				if err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
				refH, err := heurs[0].Apply(inserts, deletes)
				if err != nil {
					t.Fatalf("batch %d (heuristic): %v", b, err)
				}
				if ref.Inserted != wantIns || ref.Deleted != wantDel {
					t.Fatalf("batch %d: applied (%d,%d), mirror (%d,%d)",
						b, ref.Inserted, ref.Deleted, wantIns, wantDel)
				}
				for w := 1; w < len(widths); w++ {
					res, err := exacts[w].Apply(inserts, deletes)
					if err != nil {
						t.Fatalf("batch %d width %d: %v", b, widths[w], err)
					}
					if *res != *ref {
						t.Fatalf("batch %d: width-%d result %+v, width-1 %+v", b, widths[w], *res, *ref)
					}
					cmpMates(t, fmt.Sprintf("batch %d exact width %d", b, widths[w]),
						exacts[w].Matching(), exacts[0].Matching())
					resH, err := heurs[w].Apply(inserts, deletes)
					if err != nil {
						t.Fatalf("batch %d width %d (heuristic): %v", b, widths[w], err)
					}
					if *resH != *refH {
						t.Fatalf("batch %d: heuristic width-%d result %+v, width-1 %+v", b, widths[w], *resH, *refH)
					}
					cmpMates(t, fmt.Sprintf("batch %d heuristic width %d", b, widths[w]),
						heurs[w].Matching(), heurs[0].Matching())
				}
				if exacts[0].Edges() != len(mirror.set) {
					t.Fatalf("batch %d: session holds %d edges, mirror %d", b, exacts[0].Edges(), len(mirror.set))
				}
				snap := exacts[0].Snapshot()
				if err := snap.ValidateMatching(exacts[0].Matching()); err != nil {
					t.Fatalf("batch %d: exact matching invalid: %v", b, err)
				}
				if err := heurs[0].Snapshot().ValidateMatching(heurs[0].Matching()); err != nil {
					t.Fatalf("batch %d: heuristic matching invalid: %v", b, err)
				}
				if want := snap.Sprank(); ref.MaintainedSize != want {
					t.Fatalf("batch %d: maintained exact size %d, fresh sprank %d", b, ref.MaintainedSize, want)
				}
				if heurs[0].Size() > exacts[0].Size() {
					t.Fatalf("batch %d: heuristic size %d exceeds maximum %d", b, heurs[0].Size(), exacts[0].Size())
				}
			}
		})
	}
}

// TestDynFuzzHeuristicQuality is oracle check (c): heuristic-only
// sessions must still meet the paper's quality bounds on the mutated
// graph. The bounds are statistical (means over seeds, like the static
// quality gates), so the check averages end-of-trace quality over a
// seed sweep on total-support families and compares against the static
// thresholds with mutation slack: the mutated instances are small, and
// targeted repair is allowed to trail a fresh heuristic run only
// marginally. The sessions open with nil Options, so their initial run
// samples from the default 5-iteration scaling the bounds assume.
func TestDynFuzzHeuristicQuality(t *testing.T) {
	seeds := 12
	batches := 40
	if testing.Short() {
		seeds, batches = 6, 25
	}
	families := []struct {
		name string
		make func(seed uint64) *Graph
	}{
		{"fullyindecomposable", func(seed uint64) *Graph { return FullyIndecomposable(300, 2, seed) }},
		{"er", func(seed uint64) *Graph { return RandomER(300, 300, 5, seed) }},
		{"grid2d", func(seed uint64) *Graph { return Grid2D(17, 17) }},
	}
	specs := []struct {
		name      string
		spec      Spec
		threshold float64
	}{
		{"twosided", Spec{Algorithm: AlgTwoSided}, 0.86 * (1 - 0.03)},
		{"onesided", Spec{Algorithm: AlgOneSided}, OneSidedGuarantee(1) - 0.03},
	}
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			for _, fam := range families {
				qsum := 0.0
				for s := 1; s <= seeds; s++ {
					g := fam.make(uint64(s))
					spec := sp.spec
					spec.Seed = uint64(s)
					sess, err := g.NewDynSession(spec, nil)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(int64(900*s + 7)))
					mirror := newDynMirror(g)
					for b := 0; b < batches; b++ {
						inserts, deletes := dynFuzzBatch(rng, mirror, g.Rows(), g.Cols(), b)
						mirror.apply(inserts, deletes)
						if _, err := sess.Apply(inserts, deletes); err != nil {
							t.Fatal(err)
						}
					}
					snap := sess.Snapshot()
					if err := snap.ValidateMatching(sess.Matching()); err != nil {
						t.Fatal(err)
					}
					qsum += snap.Quality(sess.Matching())
				}
				mean := qsum / float64(seeds)
				t.Logf("%s %s: mean maintained quality %.4f over %d seeds × %d batches (threshold %.4f)",
					sp.name, fam.name, mean, seeds, batches, sp.threshold)
				if mean < sp.threshold {
					t.Errorf("%s on mutated %s: mean maintained quality %.4f below %.4f",
						sp.name, fam.name, mean, sp.threshold)
				}
			}
		})
	}
}
