package bipartite

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/sparse"
)

// mirrored returns an owned copy of mt seen from the other side, RowMate
// and ColMate swapped; nil stays nil.
func mirrored(mt *Matching) *Matching {
	if mt == nil {
		return nil
	}
	c := cloneMatching(mt)
	c.RowMate, c.ColMate = c.ColMate, c.RowMate
	return c
}

// liveColsFewer reports whether a has fewer non-isolated columns than
// non-isolated rows, counted here from the CSR.
func liveColsFewer(a *sparse.CSR) bool {
	at := a.Transpose()
	return at.RowsN-at.EmptyRows() < a.RowsN-a.EmptyRows()
}

// TestSpecRefineSearchSide pins the search side of every refinement
// engine. Each graph comes with its transpose: a rank-deficient and a
// skewed graph, whose rows carry the structural deficiency, and a wide
// Erdős–Rényi graph, whose transpose does. Cold and from TwoSided and
// OneSided warm starts (mirrored for the transpose), at Workers: 1 and on
// a width-4 pool, RefineExact, RefinePushRelabel and RefineGraft reach
// Sprank() with a König-certified matching on both graphs of the pair.
// The graph of the pair with fewer non-isolated columns than rows searches
// from its columns, so its refinement equals its transpose's refinement
// from the mirrored warm start, mirrored, mate for mate.
func TestSpecRefineSearchSide(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	opts := []struct {
		name string
		opt  *Options
	}{
		{"workers-1", &Options{Workers: 1}},
		{"pool-4", &Options{Pool: pool}},
	}
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
		cols bool // the graph, not its transpose, searches from the columns
	}{
		{"rankdef-600", gen.RankDeficient(600, 90, 4, 3), true},
		{"skewdeg-800", gen.SkewedDegree(800, 640, 6, 3, 4), true},
		{"er-wide", gen.ERAvgDeg(400, 640, 4, 5), false},
	} {
		if got := liveColsFewer(tc.a); got != tc.cols {
			t.Fatalf("%s: fewer non-isolated columns than rows = %v, want %v", tc.name, got, tc.cols)
		}
		// colSide is the graph of the pair that searches from its columns,
		// rowSide its transpose, which searches from its rows.
		colSide, rowSide := newGraph(tc.a), newGraph(tc.a.Transpose())
		if !tc.cols {
			colSide, rowSide = rowSide, colSide
		}
		inits := []struct {
			name string
			mt   *Matching
		}{{"cold", nil}}
		for _, alg := range []Algorithm{AlgTwoSided, AlgOneSided} {
			res, err := colSide.Match(Spec{Algorithm: alg, Seed: 7}, &Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			inits = append(inits, struct {
				name string
				mt   *Matching
			}{alg.String(), cloneMatching(res.Matching)})
		}
		for _, ref := range []Refinement{RefineExact, RefinePushRelabel, RefineGraft} {
			for _, o := range opts {
				for _, in := range inits {
					label := tc.name + " " + ref.String() + " " + o.name + " " + in.name
					refine := func(g *Graph, init *Matching) *Matching {
						t.Helper()
						var mt *Matching
						if ref == RefineExact && init == nil {
							mt = g.MaximumMatching(nil)
						} else {
							var err error
							if mt, err = g.NewMatcher(o.opt).refine(ref, init); err != nil {
								t.Fatal(err)
							}
						}
						if err := g.ValidateMatching(mt); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if mt.Size != g.Sprank() || !g.CertifyMaximum(mt) {
							t.Fatalf("%s: size %d, certified %v, want certified sprank %d",
								label, mt.Size, g.CertifyMaximum(mt), g.Sprank())
						}
						return cloneMatching(mt)
					}
					got := refine(colSide, in.mt)
					want := mirrored(refine(rowSide, mirrored(in.mt)))
					cmpMates(t, label, got, want)
				}
			}
		}
	}
}

// TestSpecPushRelabelAdvancesBounded bounds push-relabel by a count, not
// a wall clock. On RankDeficient(4000, 1200, 6, 7) from a TwoSided warm
// start, the rows hold the whole structural deficiency: a row search
// raises every doomed row's label to the n+m+1 cap, one bid at a time,
// over thousands of advances. Searching from the columns, the refiner
// finishes within 4 advances of one bid per search-side vertex each.
func TestSpecPushRelabelAdvancesBounded(t *testing.T) {
	g := newGraph(gen.RankDeficient(4000, 1200, 6, 7))
	m := g.NewMatcher(&Options{Workers: 1})
	res, err := m.Run(Spec{Algorithm: AlgTwoSided, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := m.newSpecRefiner(RefinePushRelabel, cloneMatching(res.Matching))
	advances := 1
	for r.Advance() {
		if advances++; advances > 4 {
			t.Fatalf("push-relabel still active after %d advances, want at most 4", advances-1)
		}
	}
	mt := r.Result()
	if mt.Size != g.Sprank() || !g.CertifyMaximum(mt) {
		t.Fatalf("size %d after %d advances, certified %v, want certified sprank %d",
			mt.Size, advances, g.CertifyMaximum(mt), g.Sprank())
	}
}
