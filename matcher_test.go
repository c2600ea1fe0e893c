package bipartite

import (
	"math"
	"testing"

	"repro/internal/gen"
)

func cmpMates(t *testing.T, what string, got, want *Matching) {
	t.Helper()
	if got.Size != want.Size {
		t.Fatalf("%s: size %d want %d", what, got.Size, want.Size)
	}
	if len(got.RowMate) != len(want.RowMate) || len(got.ColMate) != len(want.ColMate) {
		t.Fatalf("%s: shape (%d,%d) want (%d,%d)", what,
			len(got.RowMate), len(got.ColMate), len(want.RowMate), len(want.ColMate))
	}
	for i := range want.RowMate {
		if got.RowMate[i] != want.RowMate[i] {
			t.Fatalf("%s: RowMate[%d] = %d want %d", what, i, got.RowMate[i], want.RowMate[i])
		}
	}
	for j := range want.ColMate {
		if got.ColMate[j] != want.ColMate[j] {
			t.Fatalf("%s: ColMate[%d] = %d want %d", what, j, got.ColMate[j], want.ColMate[j])
		}
	}
}

func cmpScalings(t *testing.T, what string, got, want *Scaling) {
	t.Helper()
	if got.Iterations != want.Iterations ||
		math.Float64bits(got.Error) != math.Float64bits(want.Error) {
		t.Fatalf("%s: (iters=%d err=%v) want (iters=%d err=%v)",
			what, got.Iterations, got.Error, want.Iterations, want.Error)
	}
	for k := range want.DR {
		if math.Float64bits(got.DR[k]) != math.Float64bits(want.DR[k]) {
			t.Fatalf("%s: DR[%d] = %v want %v", what, k, got.DR[k], want.DR[k])
		}
	}
	for k := range want.DC {
		if math.Float64bits(got.DC[k]) != math.Float64bits(want.DC[k]) {
			t.Fatalf("%s: DC[%d] = %v want %v", what, k, got.DC[k], want.DC[k])
		}
	}
}

// TestMatcherBitIdenticalToOneShot is the session-vs-one-shot oracle:
// repeated TwoSided/OneSided Runs on one Matcher — interleaved seeds,
// repeated seeds, several option sets — reproduce a fresh Graph.Match:
// the full matching bit for bit, its size, and the scaling vectors, at
// every width.
func TestMatcherBitIdenticalToOneShot(t *testing.T) {
	graphs := map[string]*Graph{
		"er": RandomER(1500, 1500, 4, 21),
		"fi": FullyIndecomposable(1000, 2, 9),
	}
	optSets := []Options{
		{ScalingIterations: 5, Workers: 1},
		{ScalingIterations: 5, Workers: 4},
		{ScalingIterations: 0, Workers: 2}, // uniform sampling path
	}
	for name, g := range graphs {
		for oi, base := range optSets {
			m := g.NewMatcher(&base)
			for _, seed := range []uint64{1, 7, 7, 42, 1} {
				opt := base
				opt.Seed = seed
				want, err := g.Match(Spec{Algorithm: AlgTwoSided}, &opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.Run(Spec{Algorithm: AlgTwoSided, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				cmpMates(t, name+" two-sided", got.Matching, want.Matching)
				if got.Matching.Size != want.Matching.Size {
					t.Fatalf("%s opt %d seed %d: two-sided size %d want %d",
						name, oi, seed, got.Matching.Size, want.Matching.Size)
				}
				cmpScalings(t, name+" scaling", got.Scaling, want.Scaling)
				if err := g.ValidateMatching(got.Matching); err != nil {
					t.Fatalf("%s opt %d seed %d: %v", name, oi, seed, err)
				}

				gotOne, err := m.Run(Spec{Algorithm: AlgOneSided, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				wantOne, err := g.Match(Spec{Algorithm: AlgOneSided}, &opt)
				if err != nil {
					t.Fatal(err)
				}
				cmpMates(t, name+" one-sided", gotOne.Matching, wantOne.Matching)
				if gotOne.Matching.Size != wantOne.Matching.Size {
					t.Fatalf("%s opt %d seed %d: one-sided size %d want %d",
						name, oi, seed, gotOne.Matching.Size, wantOne.Matching.Size)
				}
			}
		}
	}
}

// TestMatcherSeedZeroDefaults: a Spec with Seed 0 on a session runs with
// Options.Seed — exactly what Graph.Match returns for that seed named
// explicitly.
func TestMatcherSeedZeroDefaults(t *testing.T) {
	g := RandomER(800, 800, 4, 5)
	want, err := g.Match(Spec{Seed: 99}, &Options{ScalingIterations: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.NewMatcher(&Options{ScalingIterations: 3, Seed: 99, Workers: 1}).Run(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	cmpMates(t, "seed-0 default", got.Matching, want.Matching)
}

// TestMatcherResetReuse cycles one Matcher through several graphs — equal
// and different shapes — and checks each binding behaves like a fresh
// session.
func TestMatcherResetReuse(t *testing.T) {
	gs := []*Graph{
		RandomER(1000, 1000, 4, 1),
		RandomER(1000, 1000, 4, 2), // same shape: buffers reused as-is
		RandomER(1800, 1600, 3, 3), // bigger: regrow
		RandomER(300, 400, 5, 4),   // smaller: reslice
	}
	opt := &Options{ScalingIterations: 5, Workers: 1}
	m := gs[0].NewMatcher(opt)
	for round := 0; round < 2; round++ { // second round re-visits warm shapes
		for _, g := range gs {
			m.Reset(g)
			if m.Graph() != g {
				t.Fatal("Graph() does not track Reset")
			}
			want, err := g.Match(Spec{Algorithm: AlgTwoSided}, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Run(Spec{Algorithm: AlgTwoSided})
			if err != nil {
				t.Fatal(err)
			}
			cmpMates(t, "reset two-sided", got.Matching, want.Matching)
			if err := g.ValidateMatching(got.Matching); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestMatcherScaleCachedAcrossCalls: the scaling is computed once per
// binding and every call reuses it — repeated Scale calls return the same
// view, and a KarpSipser-only session never scales at all.
func TestMatcherScaleCachedAcrossCalls(t *testing.T) {
	g := RandomER(600, 600, 4, 8)
	m := g.NewMatcher(&Options{ScalingIterations: 5})
	sc1, err := m.Scale()
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := m.Scale()
	if err != nil {
		t.Fatal(err)
	}
	if sc1 != sc2 {
		t.Fatal("Scale() recomputed instead of serving the cache")
	}
	want, err := g.NewMatcher(&Options{ScalingIterations: 5}).Scale()
	if err != nil {
		t.Fatal(err)
	}
	cmpScalings(t, "cached scaling", sc1, want)

	// Karp–Sipser variants on a session: deterministic and valid.
	wantKS, err := g.Match(Spec{Algorithm: AlgKarpSipser, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ks1, err := m.Run(Spec{Algorithm: AlgKarpSipser, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ValidateMatching(ks1.Matching); err != nil {
		t.Fatal(err)
	}
	if ks1.Matching.Size != wantKS.Matching.Size || *ks1.KSStats != *wantKS.KSStats {
		t.Fatalf("session KS (%d, %+v) want (%d, %+v)",
			ks1.Matching.Size, *ks1.KSStats, wantKS.Matching.Size, *wantKS.KSStats)
	}
	ksp, err := m.Run(Spec{Algorithm: AlgKarpSipserParallel, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ValidateMatching(ksp.Matching); err != nil {
		t.Fatal(err)
	}
}

// TestMatcherSteadyStateAllocs is the ISSUE's allocation gate: reused
// session calls stay within two allocations per call. At one worker the
// whole pipeline runs inline over resident workspaces, so the budget is
// actually zero; two is the contract.
func TestMatcherSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	g := RandomER(2000, 2000, 4, 13)
	pool := NewPool(1)
	defer pool.Close()
	m := g.NewMatcher(&Options{ScalingIterations: 5, Workers: 1, Pool: pool})

	// Each Spec's first Run warms what it uses: the scaling and sampling
	// buffers, the Karp–Sipser workspace and approx session, and the
	// refinement workspace (refineWs) — so repeated jump-start runs,
	// including the ensemble+refine serving pattern, meet the same budget
	// as the bare heuristics.
	seed := uint64(0)
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"TwoSided", Spec{Algorithm: AlgTwoSided}},
		{"OneSided", Spec{Algorithm: AlgOneSided}},
		{"KarpSipser", Spec{Algorithm: AlgKarpSipser}},
		{"KarpSipserParallel", Spec{Algorithm: AlgKarpSipserParallel}},
		{"RefineExact", Spec{Refine: RefineExact}},
		{"RefineGraft", Spec{Refine: RefineGraft}},
		{"EnsembleRefineGraft", Spec{Ensemble: 4, Refine: RefineGraft}},
	} {
		spec := tc.spec
		spec.Seed = 1
		if _, err := m.Run(spec); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			seed++
			spec.Seed = seed
			if _, err := m.Run(spec); err != nil {
				t.Fatal(err)
			}
		}); allocs > 2 {
			t.Errorf("%s: %.1f allocs per reused call, want <= 2", tc.name, allocs)
		}
	}
}

// TestMatcherSteadyStateAllocsParallel gates the parallel path too: with
// the recycled loop runtime and the fused sampling region, a
// pool-dispatched session call meets the same two-allocation budget as
// the sequential path.
func TestMatcherSteadyStateAllocsParallel(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	g := RandomER(2000, 2000, 4, 13)
	pool := NewPool(4)
	defer pool.Close()
	m := g.NewMatcher(&Options{ScalingIterations: 5, Workers: 4, Pool: pool})
	if _, err := m.Run(Spec{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	seed := uint64(0)
	if allocs := testing.AllocsPerRun(20, func() {
		seed++
		if _, err := m.Run(Spec{Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("parallel TwoSided: %.1f allocs per reused call, want <= 2", allocs)
	}
}

// TestOfflineWorkloadsScaleEachGraphOnce repeats the ops of the two
// offline benchmark workloads with Graph.Match on the same generators at
// reduced size: OneSided and TwoSided on a heavy-tailed and a road-like
// graph, and TwoSided refined to maximum on a rank-deficient, a long-path
// and a skewed graph, all at the pool's full width. A Graph keeps its
// scaling, so the first op scales each graph once and every later op runs
// no scaling, where a scaling per call ran 4 and 3 per op. A second
// iteration count adds exactly one run per graph, and a hit on a Graph's
// scaling allocates nothing.
func TestOfflineWorkloadsScaleEachGraphOnce(t *testing.T) {
	scales := countScaleRuns(t)
	for _, w := range []struct {
		name   string
		graphs []*Graph
		specs  []Spec
	}{
		{"offline-heuristic",
			[]*Graph{newGraph(gen.PowerLaw(2000, 15, 1.35, 1000, 1)), newGraph(gen.RoadLike(20000, 2.1, 2))},
			[]Spec{{Algorithm: AlgOneSided}, {Algorithm: AlgTwoSided}}},
		{"offline-exact",
			[]*Graph{newGraph(gen.RankDeficient(4000, 1200, 6, 3)), newGraph(gen.LongThinPath(8000)),
				newGraph(gen.SkewedDegree(4000, 3200, 6, 3, 4))},
			[]Spec{{Algorithm: AlgTwoSided, Refine: RefineExact}}},
	} {
		op := func(seed uint64, iters int) int64 {
			t.Helper()
			before := scales.Load()
			for _, g := range w.graphs {
				for _, spec := range w.specs {
					spec.Seed = seed
					if _, err := g.Match(spec, &Options{ScalingIterations: iters}); err != nil {
						t.Fatal(err)
					}
				}
			}
			return scales.Load() - before
		}
		graphs := int64(len(w.graphs))
		if n := op(1, 5); n != graphs {
			t.Fatalf("%s: first op ran %d scalings, want one per graph (%d)", w.name, n, graphs)
		}
		for seed := uint64(2); seed <= 4; seed++ {
			if n := op(seed, 5); n != 0 {
				t.Fatalf("%s: op %d ran %d scalings, want 0", w.name, seed, n)
			}
		}
		if n := op(5, 3); n != graphs {
			t.Fatalf("%s: first op at another iteration count ran %d scalings, want %d", w.name, n, graphs)
		}
		if n := op(6, 3); n != 0 {
			t.Fatalf("%s: second op at another iteration count ran %d scalings, want 0", w.name, n)
		}
		if raceEnabled {
			continue
		}
		v := (&Options{ScalingIterations: 5}).normalized()
		g := w.graphs[0]
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := g.scaling(v, nil); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%s: %.1f allocations per hit on a Graph's scaling, want 0", w.name, allocs)
		}
	}
}
