package bipartite

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// weightedFamilies builds the three instance families the auction quality
// gates sweep: uniform weights, heavy-tailed skewed weights, and a
// rank-deficient pattern (more rows than columns) where no perfect
// matching exists.
func weightedFamilies(t *testing.T, seed uint64) map[string]*Graph {
	t.Helper()
	er := RandomER(60, 55, 6, seed)
	rd := RandomER(80, 30, 4, seed+100)
	return map[string]*Graph{
		"uniform":        er.RandomWeights(WeightUniform, seed),
		"skewed":         er.RandomWeights(WeightSkewed, seed),
		"rank-deficient": rd.RandomWeights(WeightUniform, seed+1),
	}
}

// TestAuctionMatchQuality is the public end-to-end quality sweep: for
// every family, epsilon and seed, Graph.Match with AlgAuction must return
// a valid matching whose weight meets the documented (1−ε)·optimal
// contract against the exact Hungarian oracle.
func TestAuctionMatchQuality(t *testing.T) {
	for name, g := range weightedFamilies(t, 7) {
		opt, _, err := g.OptimalMatchedWeight()
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		for _, eps := range []float64{0.5, 0.1, 0.02} {
			for seed := uint64(1); seed <= 4; seed++ {
				res, err := g.Match(Spec{Algorithm: AlgAuction, Epsilon: eps, Seed: seed}, &Options{Workers: 1})
				if err != nil {
					t.Fatalf("%s eps=%g seed=%d: %v", name, eps, seed, err)
				}
				if err := g.ValidateMatching(res.Matching); err != nil {
					t.Fatalf("%s eps=%g seed=%d: invalid matching: %v", name, eps, seed, err)
				}
				w := g.MatchedWeight(res.Matching)
				if math.Abs(w-res.MatchedWeight) > 1e-9*(1+w) {
					t.Fatalf("%s: MatchedWeight %v disagrees with recompute %v", name, res.MatchedWeight, w)
				}
				if res.Epsilon != eps {
					t.Fatalf("%s: provenance Epsilon = %v, want %v", name, res.Epsilon, eps)
				}
				if res.Rounds <= 0 {
					t.Fatalf("%s: provenance Rounds = %d, want > 0", name, res.Rounds)
				}
				if w < (1-eps)*opt-1e-9 {
					t.Fatalf("%s eps=%g seed=%d: weight %v < (1-eps)*opt = %v",
						name, eps, seed, w, (1-eps)*opt)
				}
			}
		}
	}
}

// TestAuctionDefaultEpsilon: Epsilon 0 resolves to DefaultEpsilon and the
// provenance records the resolved value.
func TestAuctionDefaultEpsilon(t *testing.T) {
	g := RandomER(40, 40, 5, 3).RandomWeights(WeightUniform, 3)
	res, err := g.Match(Spec{Algorithm: AlgAuction}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epsilon != DefaultEpsilon {
		t.Fatalf("Epsilon = %v, want DefaultEpsilon = %v", res.Epsilon, DefaultEpsilon)
	}
	opt, _, err := g.OptimalMatchedWeight()
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchedWeight < (1-DefaultEpsilon)*opt-1e-9 {
		t.Fatalf("weight %v below default-epsilon bound %v", res.MatchedWeight, (1-DefaultEpsilon)*opt)
	}
}

// TestAuctionEnsembleDeterminismWidths pins the ensemble contract:
// best-of-K over bidding seeds returns a bit-identical winner (weight,
// seed, row mates) at pool widths 1, 2 and 4.
func TestAuctionEnsembleDeterminismWidths(t *testing.T) {
	for _, dist := range []WeightDist{WeightUniform, WeightSkewed} {
		g := RandomER(900, 850, 5, 11).RandomWeights(dist, 19)
		var refWeight float64
		var refSeed uint64
		var refMates []int32
		for _, w := range []int{1, 2, 4} {
			pool := NewPool(w)
			res, err := g.Match(
				Spec{Algorithm: AlgAuction, Epsilon: 0.1, Seed: 5, Ensemble: 6},
				&Options{Workers: w, Pool: pool},
			)
			if err != nil {
				pool.Close()
				t.Fatalf("dist=%d width=%d: %v", dist, w, err)
			}
			if res.Candidates != 6 {
				t.Fatalf("dist=%d width=%d: consumed %d candidates, want 6", dist, w, res.Candidates)
			}
			mates := append([]int32(nil), res.Matching.RowMate...)
			pool.Close()
			if w == 1 {
				refWeight, refSeed, refMates = res.MatchedWeight, res.WinnerSeed, mates
				continue
			}
			if res.MatchedWeight != refWeight {
				t.Fatalf("dist=%d width=%d: weight %v != width-1 weight %v", dist, w, res.MatchedWeight, refWeight)
			}
			if res.WinnerSeed != refSeed {
				t.Fatalf("dist=%d width=%d: winner seed %d != %d", dist, w, res.WinnerSeed, refSeed)
			}
			for i := range refMates {
				if mates[i] != refMates[i] {
					t.Fatalf("dist=%d width=%d: RowMate[%d] differs from width 1", dist, w, i)
				}
			}
		}
	}
}

// TestAuctionEnsembleImproves: the best-of-K winner is never lighter than
// the single run with the same base seed, and the winner seed lies inside
// the swept range.
func TestAuctionEnsembleImproves(t *testing.T) {
	g := RandomER(300, 300, 4, 2).RandomWeights(WeightSkewed, 5)
	single, err := g.Match(Spec{Algorithm: AlgAuction, Epsilon: 0.3, Seed: 9}, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ens, err := g.Match(Spec{Algorithm: AlgAuction, Epsilon: 0.3, Seed: 9, Ensemble: 8}, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ens.MatchedWeight < single.MatchedWeight {
		t.Fatalf("ensemble weight %v < single-run weight %v", ens.MatchedWeight, single.MatchedWeight)
	}
	if ens.WinnerSeed < 9 || ens.WinnerSeed > 9+7 {
		t.Fatalf("winner seed %d outside swept range [9, 16]", ens.WinnerSeed)
	}
}

// TestAuctionPatternGraph: AlgAuction on an unweighted graph maximizes
// cardinality (every edge weighs 1.0) and reports weight == size.
func TestAuctionPatternGraph(t *testing.T) {
	g := Complete(32)
	res, err := g.Match(Spec{Algorithm: AlgAuction, Epsilon: 0.01}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matching.Size != 32 {
		t.Fatalf("pattern auction matched %d of 32", res.Matching.Size)
	}
	if res.MatchedWeight != float64(res.Matching.Size) {
		t.Fatalf("pattern MatchedWeight %v != size %d", res.MatchedWeight, res.Matching.Size)
	}
	if g.MatchedWeight(res.Matching) != float64(res.Matching.Size) {
		t.Fatal("Graph.MatchedWeight pattern fallback broken")
	}
}

// TestAuctionSpecValidation: the Spec layer rejects the documented
// invalid combinations before any kernel runs.
func TestAuctionSpecValidation(t *testing.T) {
	g := RandomER(10, 10, 3, 1)
	bad := []Spec{
		{Algorithm: AlgAuction, Epsilon: 1},
		{Algorithm: AlgAuction, Epsilon: -0.5},
		{Algorithm: AlgAuction, Refine: RefineExact},
		{Algorithm: AlgAuction, Target: 0.9, Ensemble: 2},
		{Algorithm: AlgTwoSided, Epsilon: 0.1},
	}
	for i, spec := range bad {
		if _, err := g.Match(spec, nil); err == nil {
			t.Fatalf("spec %d (%+v) accepted; want validation error", i, spec)
		}
	}
}

// TestAuctionWeightedConstructors exercises the public weighted builders
// and their validation: weight/edge length mismatch, non-positive and
// non-finite weights, and the nil-val pattern fallback.
func TestAuctionWeightedConstructors(t *testing.T) {
	edges := [][2]int{{0, 0}, {0, 1}, {1, 0}}
	g, err := FromWeightedEdges(2, 2, edges, []float64{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() || len(g.Weights()) != 3 {
		t.Fatalf("Weighted=%v Weights len=%d", g.Weighted(), len(g.Weights()))
	}
	res, err := g.Match(Spec{Algorithm: AlgAuction, Epsilon: 0.01}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal picks (0,0)+... no: (0,0)=2 blocks (1,0); best is (0,1)=1 + (1,0)=1
	// vs (0,0)=2 alone → 2 either way; auction must reach weight ≥ 2·0.99.
	if res.MatchedWeight < 2*0.99 {
		t.Fatalf("tiny instance weight %v < 1.98", res.MatchedWeight)
	}

	if _, err := FromWeightedEdges(2, 2, edges, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	for _, w := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := FromWeightedEdges(2, 2, edges, []float64{1, 1, w}); err == nil {
			t.Fatalf("weight %v accepted", w)
		}
	}
	p, err := NewWeightedGraph(2, 2, []int{0, 1, 2}, []int32{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Weighted() {
		t.Fatal("nil val built a weighted graph")
	}
}

// edgeWeights returns g's weight of every edge.
func edgeWeights(g *Graph) map[[2]int]float64 {
	out := map[[2]int]float64{}
	rows, _, ptr, idx := g.CSR()
	w := g.Weights()
	for i := 0; i < rows; i++ {
		for p := ptr[i]; p < ptr[i+1]; p++ {
			out[[2]int{i, int(idx[p])}] = w[p]
		}
	}
	return out
}

// TestWeightedDuplicatesKeepLastWeight holds FromWeightedEdges and a
// weighted Matrix Market file read by ReadMatrixMarket to their duplicate
// rule, on 60 edges over a 3×3 grid: each merged edge keeps the weight
// that comes last in the input.
func TestWeightedDuplicatesKeepLastWeight(t *testing.T) {
	rng := xrand.New(3)
	edges := make([][2]int, 60)
	weights := make([]float64, len(edges))
	last := map[[2]int]float64{}
	var mtx strings.Builder
	fmt.Fprintf(&mtx, "%%%%MatrixMarket matrix coordinate real general\n3 3 %d\n", len(edges))
	for k := range edges {
		edges[k] = [2]int{rng.Intn(3), rng.Intn(3)}
		weights[k] = float64(k + 1)
		last[edges[k]] = weights[k]
		fmt.Fprintf(&mtx, "%d %d %g\n", edges[k][0]+1, edges[k][1]+1, weights[k])
	}
	path := filepath.Join(t.TempDir(), "dup.mtx")
	if err := os.WriteFile(path, []byte(mtx.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	fromEdges, err := FromWeightedEdges(3, 3, edges, weights)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := ReadMatrixMarket(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"FromWeightedEdges": fromEdges, "ReadMatrixMarket": fromFile} {
		got := edgeWeights(g)
		if len(got) != len(last) || g.Edges() != len(last) {
			t.Fatalf("%s: %d edges, want %d", name, g.Edges(), len(last))
		}
		for e, w := range last {
			if got[e] != w {
				t.Errorf("%s: edge %v has weight %v, want the last one, %v", name, e, got[e], w)
			}
		}
	}
}

// TestNewWeightedGraphMergesDuplicates checks that NewWeightedGraph
// merges a repeated edge, keeping the weight that comes last in its row,
// leaves unsorted input unchanged and keeps strictly increasing rows
// without a copy.
func TestNewWeightedGraphMergesDuplicates(t *testing.T) {
	ptr, idx, val := []int{0, 3, 4}, []int32{1, 0, 1, 0}, []float64{1, 2, 3, 4}
	g, err := NewWeightedGraph(2, 2, ptr, idx, val)
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]int]float64{{0, 0}: 2, {0, 1}: 3, {1, 0}: 4}
	if got := edgeWeights(g); g.Edges() != 3 || len(got) != 3 || got[[2]int{0, 0}] != 2 || got[[2]int{0, 1}] != 3 || got[[2]int{1, 0}] != 4 {
		t.Fatalf("NewWeightedGraph gave %d edges with weights %v, want %v", g.Edges(), got, want)
	}
	if !slices.Equal(ptr, []int{0, 3, 4}) || !slices.Equal(idx, []int32{1, 0, 1, 0}) || !slices.Equal(val, []float64{1, 2, 3, 4}) {
		t.Fatalf("NewWeightedGraph changed its input to ptr %v idx %v val %v", ptr, idx, val)
	}
	sortedVal := []float64{5, 6, 7}
	s, err := NewWeightedGraph(2, 2, []int{0, 2, 3}, []int32{0, 1, 0}, sortedVal)
	if err != nil {
		t.Fatal(err)
	}
	if &s.Weights()[0] != &sortedVal[0] {
		t.Fatal("NewWeightedGraph copied rows that were already strictly increasing")
	}
}

// TestAuctionDynSession drives the dynamic-session auction mode through
// the public API: weighted creation, ApplyWeighted mutations,
// MaintainedWeight provenance and the creation-time quality bound on the
// mutated graph.
func TestAuctionDynSession(t *testing.T) {
	g := RandomER(50, 50, 5, 13).RandomWeights(WeightUniform, 13)
	const eps = 0.1
	s, err := g.NewDynSession(Spec{Algorithm: AlgAuction, Epsilon: eps, Seed: 3}, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt0, _, err := g.OptimalMatchedWeight()
	if err != nil {
		t.Fatal(err)
	}
	if w := s.MaintainedWeight(); w < (1-eps)*opt0-1e-9 {
		t.Fatalf("initial maintained weight %v < bound %v", w, (1-eps)*opt0)
	}

	// Delete some matched edges and insert heavy replacements.
	var deletes [][2]int
	mt := s.Matching()
	for i := 0; i < len(mt.RowMate) && len(deletes) < 6; i++ {
		if j := mt.RowMate[i]; j >= 0 {
			deletes = append(deletes, [2]int{i, int(j)})
		}
	}
	inserts := []WeightedEdge{
		{Row: 0, Col: 49, Weight: 3},
		{Row: 1, Col: 48, Weight: 2.5},
		{Row: 49, Col: 0, Weight: 4},
	}
	res, err := s.ApplyWeighted(inserts, deletes)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaintainedWeight != s.MaintainedWeight() {
		t.Fatalf("DynResult.MaintainedWeight %v != session %v", res.MaintainedWeight, s.MaintainedWeight())
	}
	snap := s.Snapshot()
	if !snap.Weighted() {
		t.Fatal("snapshot of weighted session lost its weights")
	}
	if err := snap.ValidateMatching(s.Matching()); err != nil {
		t.Fatalf("maintained matching invalid after mutations: %v", err)
	}
	got := snap.MatchedWeight(s.Matching())
	if math.Abs(got-s.MaintainedWeight()) > 1e-9*(1+got) {
		t.Fatalf("maintained weight %v disagrees with snapshot recompute %v", s.MaintainedWeight(), got)
	}
	// Repair runs at the creation-time absolute slack; check the matched
	// weight against the mutated graph's oracle with that additive bound.
	optNow, _, err := snap.OptimalMatchedWeight()
	if err != nil {
		t.Fatal(err)
	}
	if got < (1-eps)*optNow-1e-9 {
		t.Fatalf("post-mutation weight %v < (1-eps)*opt = %v", got, (1-eps)*optNow)
	}

	// Weight update of a present edge counts as a mutation and re-repairs.
	batches := s.Stats().Batches
	if _, err := s.ApplyWeighted([]WeightedEdge{{Row: 0, Col: 49, Weight: 5}}, nil); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Batches != batches+1 {
		t.Fatal("weight update batch not recorded")
	}
	// ApplyWeighted on a non-auction session is rejected.
	p, err := RandomER(10, 10, 3, 1).NewDynSession(Spec{}, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ApplyWeighted(inserts, nil); err == nil {
		t.Fatal("ApplyWeighted accepted on a cardinality session")
	}
}

// TestAuctionDynDeterminismWidths: the maintained auction matching is
// bit-identical across pool widths after the same mutation trace.
func TestAuctionDynDeterminismWidths(t *testing.T) {
	base := RandomER(400, 380, 5, 21).RandomWeights(WeightSkewed, 8)
	trace := func(s *DynSession) {
		for b := 0; b < 3; b++ {
			var ins []WeightedEdge
			var del [][2]int
			for k := 0; k < 10; k++ {
				ins = append(ins, WeightedEdge{Row: (b*37 + k*13) % 400, Col: (b*11 + k*29) % 380, Weight: 1 + float64(k)/3})
			}
			mt := s.Matching()
			for i := b * 5; i < len(mt.RowMate) && len(del) < 5; i++ {
				if j := mt.RowMate[i]; j >= 0 {
					del = append(del, [2]int{i, int(j)})
				}
			}
			if _, err := s.ApplyWeighted(ins, del); err != nil {
				t.Fatal(err)
			}
		}
	}
	var refW float64
	var refMates []int32
	for _, w := range []int{1, 2, 4} {
		pool := NewPool(w)
		s, err := base.NewDynSession(Spec{Algorithm: AlgAuction, Epsilon: 0.1, Seed: 4}, &Options{Workers: w, Pool: pool})
		if err != nil {
			pool.Close()
			t.Fatal(err)
		}
		trace(s)
		mates := append([]int32(nil), s.Matching().RowMate...)
		weight := s.MaintainedWeight()
		pool.Close()
		if w == 1 {
			refW, refMates = weight, mates
			continue
		}
		if weight != refW {
			t.Fatalf("width %d: maintained weight %v != width-1 %v", w, weight, refW)
		}
		for i := range refMates {
			if mates[i] != refMates[i] {
				t.Fatalf("width %d: RowMate[%d] differs from width 1", w, i)
			}
		}
	}
}

// TestAuctionMatchBatch: AlgAuction specs flow through Server.MatchBatch
// with weighted provenance, the dual bound included, on the Response.
func TestAuctionMatchBatch(t *testing.T) {
	g1 := RandomER(40, 40, 4, 1).RandomWeights(WeightUniform, 2)
	g2 := RandomER(30, 35, 4, 2).RandomWeights(WeightSkewed, 3)
	reqs := []Request{
		{Graph: g1, Spec: Spec{Algorithm: AlgAuction, Epsilon: 0.1}},
		{Graph: g2, Spec: Spec{Algorithm: AlgAuction, Epsilon: 0.2, Ensemble: 3}},
		{Graph: g1, Spec: Spec{}},
	}
	resps := matchBatch(reqs, &Options{Workers: 2})
	for i, r := range resps[:2] {
		if r.Err != nil {
			t.Fatalf("response %d: %v", i, r.Err)
		}
		if r.MatchedWeight <= 0 || r.Rounds <= 0 {
			t.Fatalf("response %d: missing auction provenance: weight=%v rounds=%d", i, r.MatchedWeight, r.Rounds)
		}
		if r.Epsilon == 0 {
			t.Fatalf("response %d: epsilon not propagated", i)
		}
		if r.DualBound < r.MatchedWeight {
			t.Fatalf("response %d: dual bound %v below matched weight %v", i, r.DualBound, r.MatchedWeight)
		}
	}
	if resps[2].Err != nil {
		t.Fatalf("cardinality response: %v", resps[2].Err)
	}
	if resps[2].MatchedWeight != 0 {
		t.Fatalf("cardinality response has MatchedWeight %v", resps[2].MatchedWeight)
	}
}

// TestAuctionMatrixMarketRoundTrip: weighted graphs survive a
// MatrixMarket write/read cycle with weights (and therefore auction
// results) intact.
func TestAuctionMatrixMarketRoundTrip(t *testing.T) {
	g := RandomER(30, 30, 4, 5).RandomWeights(WeightSkewed, 6)
	path := t.TempDir() + "/w.mtx"
	if err := g.WriteMatrixMarket(path); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadMatrixMarket(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Weighted() {
		t.Fatal("round-trip lost the weights")
	}
	a, err := g.Match(Spec{Algorithm: AlgAuction, Epsilon: 0.1, Seed: 2}, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.Match(Spec{Algorithm: AlgAuction, Epsilon: 0.1, Seed: 2}, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.MatchedWeight != b.MatchedWeight {
		t.Fatalf("round-trip weight %v != original %v", b.MatchedWeight, a.MatchedWeight)
	}
	for i := range a.Matching.RowMate {
		if a.Matching.RowMate[i] != b.Matching.RowMate[i] {
			t.Fatalf("round-trip RowMate[%d] differs", i)
		}
	}
}
