package bipartite

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cheap"
	"repro/internal/core"
	"repro/internal/ks"
	"repro/internal/scale"
)

// The Spec conformance suite: the declarative engine (Matcher.Run) is the
// only code path that dispatches matching kernels. These tests pin (a)
// that each Algorithm runs its kernel, bit for bit against the kernel
// called directly at fixed seeds, (b) the RefineExact guarantee
// |M| == Sprank on the quality-suite families, (c) the
// one-scaling-per-ensemble economy and deterministic winners, and (d)
// full Specs through the batch layer plus scale-cache eviction.

// specConformanceGraphs are small instances spanning structure classes:
// random with total support, complete (dense), mesh, and rank-deficient.
func specConformanceGraphs() []struct {
	name string
	g    *Graph
} {
	return []struct {
		name string
		g    *Graph
	}{
		{"er-600", RandomER(600, 600, 4, 3)},
		{"fullyind-500", FullyIndecomposable(500, 2, 5)},
		{"road-800", RoadNetwork(800, 2.5, 9)}, // slightly rank-deficient
	}
}

// TestSpecRunsItsKernel gates the engine's dispatch: Graph.Match with each
// cardinality Algorithm returns exactly what the internal kernel that
// Algorithm names returns when called directly — same mates, same scaling
// vectors, same Karp–Sipser phase statistics, a nil Scaling for the
// algorithms that do not scale, and single-run provenance. The references
// run at width 1 and never go through Matcher.Run, so a case of runOnce
// that runs the wrong kernel fails here. Graph.Match runs at Workers: 1
// and on a pool of width 4, where every Algorithm but
// AlgKarpSipserParallel must return the width-1 matching (the package
// determinism contract); each row matches fresh graphs, so it computes its
// own scalings.
func TestSpecRunsItsKernel(t *testing.T) {
	wide := NewPool(4)
	defer wide.Close()
	for _, row := range []struct {
		name string
		opt  *Options
	}{
		{"workers 1", &Options{ScalingIterations: 5, Workers: 1}},
		{"pool width 4", &Options{ScalingIterations: 5, Pool: wide}},
	} {
		for _, tc := range specConformanceGraphs() {
			a, at := tc.g.a, tc.g.transpose()
			sk, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: 5, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			wantSc := &Scaling{DR: sk.DR, DC: sk.DC, Iterations: sk.Iters, Error: sk.Err,
				History: sk.History, RowSums: sk.RSum, ColSums: sk.CSum}
			for _, seed := range []uint64{1, 7, 42} {
				co := coreOpts(1)
				co.Seed, co.RowTotals, co.ColTotals = seed, sk.RSum, sk.CSum
				cmatch, _ := core.OneSided(a, sk.DR, sk.DC, co)
				ksMt, ksSt := ks.Run(a, at, seed)
				for _, c := range []struct {
					alg    Algorithm
					want   *Matching
					scaled bool
					stats  *KarpSipserStats
				}{
					{AlgTwoSided, core.TwoSided(a, at, sk.DR, sk.DC, co).Matching, true, nil},
					{AlgOneSided, core.CMatchToMatching(a.RowsN, cmatch), true, nil},
					{AlgKarpSipser, ksMt, false, &ksSt},
					{AlgKarpSipserParallel, ks.RunApprox(a, at, seed, 1), false, nil},
					{AlgCheapEdge, cheap.RandomEdge(a, seed), false, nil},
					{AlgCheapVertex, cheap.RandomVertex(a, seed), false, nil},
				} {
					if c.alg == AlgKarpSipserParallel && row.opt.Workers != 1 {
						continue // the Azad et al. baseline's pairing depends on the schedule
					}
					name := fmt.Sprintf("%s %s seed %d %s", row.name, tc.name, seed, c.alg)
					got, err := tc.g.Match(Spec{Algorithm: c.alg, Seed: seed}, row.opt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					cmpMates(t, name, got.Matching, c.want)
					if c.scaled {
						cmpScalings(t, name+" scaling", got.Scaling, wantSc)
					} else if got.Scaling != nil {
						t.Fatalf("%s: unexpected scaling in result", name)
					}
					if c.stats == nil {
						if got.KSStats != nil {
							t.Fatalf("%s: unexpected Karp–Sipser stats %+v", name, *got.KSStats)
						}
					} else if got.KSStats == nil || *got.KSStats != *c.stats {
						t.Fatalf("%s: Karp–Sipser stats %+v want %+v", name, got.KSStats, *c.stats)
					}
					if got.Candidates != 1 || got.WinnerSeed != seed || got.HeuristicSize != got.Matching.Size ||
						got.Refined || got.RefinedWith != RefineNone {
						t.Fatalf("%s: provenance (%d, %d, %d, %v, %s) want (1, %d, %d, false, none)", name,
							got.Candidates, got.WinnerSeed, got.HeuristicSize, got.Refined, got.RefinedWith,
							seed, got.Matching.Size)
					}
				}
			}
		}
	}
}

// TestSpecRefineExactReachesSprank is the jump-start acceptance gate:
// Refine: Exact completes any heuristic matching to maximum cardinality
// (|M| == Sprank) on the quality-suite families — including a
// rank-deficient instance, where no heuristic alone can reach the bound.
func TestSpecRefineExactReachesSprank(t *testing.T) {
	families := qualityGraphs()
	families = append(families, struct {
		name string
		g    *Graph
	}{"road-1000", RoadNetwork(1000, 2.5, 4)})
	for _, tc := range families {
		sprank := tc.g.Sprank()
		for _, ref := range []Refinement{RefineExact, RefinePushRelabel} {
			for _, alg := range []Algorithm{AlgTwoSided, AlgOneSided, AlgKarpSipser, AlgCheapVertex} {
				res, err := tc.g.Match(Spec{Algorithm: alg, Seed: 3, Refine: ref}, &Options{ScalingIterations: 5})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", tc.name, alg, ref, err)
				}
				if res.Matching.Size != sprank {
					t.Fatalf("%s/%s/%s: refined size %d want sprank %d", tc.name, alg, ref, res.Matching.Size, sprank)
				}
				if err := tc.g.ValidateMatching(res.Matching); err != nil {
					t.Fatalf("%s/%s/%s: %v", tc.name, alg, ref, err)
				}
				if !tc.g.CertifyMaximum(res.Matching) {
					t.Fatalf("%s/%s/%s: refined matching fails the König certificate", tc.name, alg, ref)
				}
				if res.HeuristicSize > res.Matching.Size {
					t.Fatalf("%s/%s/%s: heuristic size %d exceeds refined size %d",
						tc.name, alg, ref, res.HeuristicSize, res.Matching.Size)
				}
				if !res.Refined {
					t.Fatalf("%s/%s/%s: Refined flag not set", tc.name, alg, ref)
				}
			}
		}
	}
}

// TestSpecEnsembleSingleScalingDeterministicWinner gates the ensemble
// acceptance criteria: a best-of-8 ensemble on a cold graph performs
// exactly one scaling run (the counter hook proves it), its winner is
// deterministic, and the best-of size dominates every individual
// candidate. The Graph keeps that scaling, so later Matchers on it, and
// their ensembles, run none.
func TestSpecEnsembleSingleScalingDeterministicWinner(t *testing.T) {
	g := RandomER(1000, 1000, 3, 17)
	scales := countScaleRuns(t)

	run := func() *MatchResult {
		m := g.NewMatcher(&Options{ScalingIterations: 5, Workers: 1})
		res, err := m.Run(Spec{Algorithm: AlgTwoSided, Seed: 1, Ensemble: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	if n := scales.Load(); n != 1 {
		t.Fatalf("best-of-8 on a cold matcher: %d scaling runs, want exactly 1", n)
	}
	if first.Candidates != 8 {
		t.Fatalf("Candidates = %d, want 8 (no target set)", first.Candidates)
	}

	// The winner dominates each individual candidate and carries its seed.
	m := g.NewMatcher(&Options{ScalingIterations: 5, Workers: 1})
	bestSize, bestSeed := -1, uint64(0)
	for s := uint64(1); s <= 8; s++ {
		res, err := m.Run(Spec{Algorithm: AlgTwoSided, Seed: s})
		if err != nil {
			t.Fatal(err)
		}
		if res.Matching.Size > bestSize {
			bestSize, bestSeed = res.Matching.Size, s
		}
	}
	if first.Matching.Size != bestSize || first.WinnerSeed != bestSeed {
		t.Fatalf("ensemble winner (size %d, seed %d) want (size %d, seed %d)",
			first.Matching.Size, first.WinnerSeed, bestSize, bestSeed)
	}
	if n := scales.Load(); n != 1 { // the candidate loop's matcher takes the Graph's scaling
		t.Fatalf("after individual candidates: %d scaling runs, want 1", n)
	}
	// An ensemble on a second fresh Matcher scales no more, and the winner
	// reproduces bit for bit.
	second := run()
	if n := scales.Load(); n != 1 {
		t.Fatalf("two ensembles + candidate sweep: %d scaling runs, want 1", n)
	}
	cmpMates(t, "deterministic ensemble winner", second.Matching, first.Matching)
	if second.WinnerSeed != first.WinnerSeed {
		t.Fatalf("winner seed drifted: %d then %d", first.WinnerSeed, second.WinnerSeed)
	}

	// Warm-matcher follow-up ensemble on the same session: still no
	// rescale.
	mm := g.NewMatcher(&Options{ScalingIterations: 5, Workers: 1})
	if _, err := mm.Run(Spec{Seed: 1}); err != nil { // warm the scaling
		t.Fatal(err)
	}
	before := scales.Load()
	if _, err := mm.Run(Spec{Ensemble: 8, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	if n := scales.Load(); n != before {
		t.Fatalf("warm ensemble rescaled: %d -> %d runs", before, n)
	}
}

// TestSpecEnsembleTargetEarlyStop: a modest Target stops the sweep after
// the first candidate that satisfies it (TwoSided clears 0.5·sprank-bound
// in one shot), while Target: 1 on a graph the heuristic cannot saturate
// runs the whole ensemble.
func TestSpecEnsembleTargetEarlyStop(t *testing.T) {
	g := RandomER(1000, 1000, 4, 23)
	res, err := g.Match(Spec{Ensemble: 8, Seed: 1, Target: 0.5}, &Options{ScalingIterations: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates != 1 {
		t.Fatalf("target 0.5: ran %d candidates, want 1", res.Candidates)
	}
	if res.Matching.Size < g.SprankUpperBound()/2 {
		t.Fatalf("early-stopped size %d below the target it claimed to meet", res.Matching.Size)
	}

	hard := HardForKarpSipser(300, 6) // KS quality degrades here by design
	resHard, err := hard.Match(Spec{Algorithm: AlgKarpSipser, Ensemble: 4, Seed: 1, Target: 1.0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resHard.Candidates != 4 && resHard.Matching.Size != hard.SprankUpperBound() {
		t.Fatalf("target 1.0: stopped after %d candidates at size %d < upper bound %d",
			resHard.Candidates, resHard.Matching.Size, hard.SprankUpperBound())
	}
}

// TestSpecValidate: malformed specs fail fast with precise errors — from
// Run, from Graph.Match and from the batch layer — before any kernel runs.
func TestSpecValidate(t *testing.T) {
	g := Complete(16)
	bad := []Spec{
		{Algorithm: Algorithm(99)},
		{Algorithm: -1},
		{Refine: Refinement(7)},
		{Ensemble: -2},
		{Target: 1.5},
		{Target: -0.25},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Fatalf("spec %d (%+v): Validate accepted it", i, spec)
		}
		if _, err := g.Match(spec, nil); err == nil {
			t.Fatalf("spec %d (%+v): Match accepted it", i, spec)
		}
		resp := matchBatch([]Request{{Graph: g, Spec: spec}}, nil)
		if resp[0].Err == nil {
			t.Fatalf("spec %d (%+v): batch accepted it", i, spec)
		}
	}
	// Valid specs round-trip their wire names.
	for _, alg := range []Algorithm{AlgTwoSided, AlgOneSided, AlgKarpSipser, AlgKarpSipserParallel, AlgCheapEdge, AlgCheapVertex} {
		back, err := ParseAlgorithm(alg.String())
		if err != nil || back != alg {
			t.Fatalf("algorithm %v does not round-trip: %v %v", alg, back, err)
		}
	}
	for _, ref := range []Refinement{RefineNone, RefineExact, RefinePushRelabel, RefineGraft} {
		back, err := ParseRefinement(ref.String())
		if err != nil || back != ref {
			t.Fatalf("refinement %v does not round-trip: %v %v", ref, back, err)
		}
	}
}

// TestSpecBatchEnsembleRefine: full specs ride the batch layer — a
// best-of-4 refined request comes back maximum, and ensembles still share
// the per-graph scaling cell (1 run per graph however many candidates).
func TestSpecBatchEnsembleRefine(t *testing.T) {
	g := RandomER(800, 800, 4, 41)
	sprank := g.Sprank()
	scales := countScaleRuns(t)
	reqs := []Request{
		{Graph: g, Spec: Spec{Algorithm: AlgTwoSided, Seed: 1, Ensemble: 4, Refine: RefineExact}},
		{Graph: g, Spec: Spec{Algorithm: AlgTwoSided, Seed: 5, Ensemble: 4}},
		{Graph: g, Spec: Spec{Algorithm: AlgOneSided, Seed: 9, Refine: RefineExact}},
	}
	out := matchBatch(reqs, &Options{ScalingIterations: 5})
	for i, resp := range out {
		if resp.Err != nil {
			t.Fatalf("req %d: %v", i, resp.Err)
		}
		if err := g.ValidateMatching(resp.Matching); err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
	}
	if out[0].Matching.Size != sprank || out[2].Matching.Size != sprank {
		t.Fatalf("refined sizes (%d, %d) want sprank %d", out[0].Matching.Size, out[2].Matching.Size, sprank)
	}
	if n := scales.Load(); n != 1 {
		t.Fatalf("batched ensembles: %d scaling runs for one graph, want 1", n)
	}
	// The Response carries the engine's provenance: refined requests are
	// flagged, ensemble winners report their seed and candidate count, and
	// unrefined responses have HeuristicSize == Matching.Size.
	if !out[0].Refined || !out[2].Refined || out[1].Refined {
		t.Fatalf("Refined flags (%v, %v, %v) want (true, false, true)",
			out[0].Refined, out[1].Refined, out[2].Refined)
	}
	if out[1].WinnerSeed < 5 || out[1].WinnerSeed > 8 || out[1].Candidates < 1 || out[1].Candidates > 4 {
		t.Fatalf("ensemble response provenance: winner seed %d, candidates %d", out[1].WinnerSeed, out[1].Candidates)
	}
	if out[1].HeuristicSize != out[1].Matching.Size {
		t.Fatalf("unrefined response: heuristic size %d != matching size %d",
			out[1].HeuristicSize, out[1].Matching.Size)
	}
	if out[2].Candidates != 1 || out[2].WinnerSeed != 9 || out[2].HeuristicSize > out[2].Matching.Size {
		t.Fatalf("refined single response provenance: (%d, %d, %d)",
			out[2].Candidates, out[2].WinnerSeed, out[2].HeuristicSize)
	}
}

// TestSpecServerDropGraph gates the registry→engine eviction callback:
// DropGraph forgets the graph's service-time classes, and leaves its
// scaling, which the Graph holds, to the Graph: the next request of the
// graph does not rescale.
func TestSpecServerDropGraph(t *testing.T) {
	g := RandomER(600, 600, 4, 51)
	scales := countScaleRuns(t)
	srv := NewServerConfig(&Options{ScalingIterations: 5}, ServerConfig{MaxBatch: 16})
	defer srv.Close()

	for s := uint64(1); s <= 3; s++ {
		if resp := srv.Match(Request{Graph: g, Spec: Spec{Seed: s}}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	if n := scales.Load(); n != 1 {
		t.Fatalf("warm server: %d scaling runs, want 1", n)
	}
	classes := func() int {
		svc := srv.engine.svc
		svc.mu.Lock()
		defer svc.mu.Unlock()
		n := 0
		for k := range svc.keyed {
			if k.g == g {
				n++
			}
		}
		return n
	}
	if classes() == 0 {
		t.Fatal("served graph has no service-time class")
	}
	srv.DropGraph(g)
	if n := classes(); n != 0 {
		t.Fatalf("after DropGraph: %d service-time classes of the graph, want 0", n)
	}
	if resp := srv.Match(Request{Graph: g, Spec: Spec{Seed: 4}}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if n := scales.Load(); n != 1 {
		t.Fatalf("after DropGraph: %d scaling runs, want 1 (the Graph keeps its scaling)", n)
	}
	// Dropping an unknown graph is a no-op, not a panic.
	srv.DropGraph(Complete(4))
}

// TestSpecErrorsAreTagged: spec validation failures unwrap to a stable
// sentinel-free shape the HTTP layer can rely on (they are not ErrCanceled
// or context errors).
func TestSpecErrorsAreTagged(t *testing.T) {
	_, err := Complete(8).Match(Spec{Target: 3}, nil)
	if err == nil {
		t.Fatal("invalid target accepted")
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatalf("validation error aliases ErrCanceled: %v", err)
	}
}

// TestSpecEnsembleParallelBitIdentical gates this PR's acceptance
// criterion: the parallel ensemble path (candidates fanned out across the
// pool, one width-1 arena per worker) returns a bit-identical result to
// the sequential path at any pool width — same mates, same winner seed,
// same candidate count, same heuristic size, same Karp–Sipser phase
// statistics — across algorithms, refinements and early-stop targets. The
// sequential reference runs at Workers: 1, which is the width the parallel
// path's candidates run at by construction.
func TestSpecEnsembleParallelBitIdentical(t *testing.T) {
	g := RandomER(900, 900, 4, 13)
	specs := []Spec{
		{Algorithm: AlgTwoSided, Seed: 1, Ensemble: 8},
		{Algorithm: AlgTwoSided, Seed: 3, Ensemble: 8, Target: 0.9},
		{Algorithm: AlgTwoSided, Seed: 5, Ensemble: 6, Refine: RefineExact},
		{Algorithm: AlgOneSided, Seed: 2, Ensemble: 8, Refine: RefinePushRelabel},
		{Algorithm: AlgOneSided, Seed: 6, Ensemble: 6, Refine: RefineGraft},
		{Algorithm: AlgOneSided, Seed: 4, Ensemble: 8, Refine: RefineExact, Target: 0.97},
		{Algorithm: AlgKarpSipser, Seed: 1, Ensemble: 5},
		{Algorithm: AlgKarpSipserParallel, Seed: 7, Ensemble: 4},
		{Algorithm: AlgCheapVertex, Seed: 9, Ensemble: 8, Target: 0.6},
	}
	for _, spec := range specs {
		want, err := g.NewMatcher(&Options{ScalingIterations: 5, Workers: 1}).Run(spec)
		if err != nil {
			t.Fatalf("%+v sequential: %v", spec, err)
		}
		wantMt := cloneMatching(want.Matching)
		for _, width := range []int{2, 3, 8} {
			pool := NewPool(width)
			m := g.NewMatcher(&Options{ScalingIterations: 5, Pool: pool})
			got, err := m.Run(spec)
			if err != nil {
				t.Fatalf("%+v width %d: %v", spec, width, err)
			}
			cmpMates(t, fmt.Sprintf("%v/%v width %d", spec.Algorithm, spec.Refine, width), got.Matching, wantMt)
			if got.WinnerSeed != want.WinnerSeed || got.Candidates != want.Candidates ||
				got.HeuristicSize != want.HeuristicSize || got.Refined != want.Refined {
				t.Fatalf("%+v width %d: provenance (%d, %d, %d, %v) want (%d, %d, %d, %v)", spec, width,
					got.WinnerSeed, got.Candidates, got.HeuristicSize, got.Refined,
					want.WinnerSeed, want.Candidates, want.HeuristicSize, want.Refined)
			}
			if spec.Algorithm == AlgKarpSipser && *got.KSStats != *want.KSStats {
				t.Fatalf("%+v width %d: KS stats %+v want %+v", spec, width, *got.KSStats, *want.KSStats)
			}
			pool.Close()
		}
	}
}

// TestSpecEnsembleParallelWinnerStats gates the winner-stats satellite: on
// the parallel path, MatchResult reflects the *winner's* Karp–Sipser phase
// statistics (not the last candidate's, not a mixture), and a parallel
// TwoSided ensemble on a cold session still performs exactly one scaling
// run — the candidates share the session's cached scaling via their
// per-worker arenas.
func TestSpecEnsembleParallelWinnerStats(t *testing.T) {
	g := HardForKarpSipser(300, 5) // KS sizes spread out by seed here
	const k = 6

	// The expected winner, computed the slow way from individual runs.
	bestSize, bestSeed := -1, uint64(0)
	var wantStats KarpSipserStats
	for s := uint64(1); s <= k; s++ {
		res, err := g.Match(Spec{Algorithm: AlgKarpSipser, Seed: s}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matching.Size > bestSize {
			bestSize, bestSeed, wantStats = res.Matching.Size, s, *res.KSStats
		}
	}

	pool := NewPool(4)
	defer pool.Close()
	res, err := g.NewMatcher(&Options{Pool: pool}).Run(Spec{Algorithm: AlgKarpSipser, Seed: 1, Ensemble: k})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matching.Size != bestSize || res.WinnerSeed != bestSeed {
		t.Fatalf("parallel KS ensemble winner (size %d, seed %d) want (size %d, seed %d)",
			res.Matching.Size, res.WinnerSeed, bestSize, bestSeed)
	}
	if res.KSStats == nil || *res.KSStats != wantStats {
		t.Fatalf("parallel KS ensemble stats %+v want winner's %+v", res.KSStats, wantStats)
	}

	// Scaling economy on the parallel path: one cold best-of-8 TwoSided
	// ensemble = exactly one scaling run, shared by every worker arena.
	g2 := RandomER(800, 800, 4, 77)
	scales := countScaleRuns(t)
	res2, err := g2.NewMatcher(&Options{ScalingIterations: 5, Pool: pool}).Run(Spec{Seed: 1, Ensemble: 8})
	if err != nil {
		t.Fatal(err)
	}
	if n := scales.Load(); n != 1 {
		t.Fatalf("parallel best-of-8 on a cold matcher: %d scaling runs, want exactly 1", n)
	}
	if res2.Scaling == nil {
		t.Fatal("parallel ensemble result carries no scaling")
	}
	if res2.Candidates != 8 {
		t.Fatalf("Candidates = %d, want 8 (no target set)", res2.Candidates)
	}
}

// TestSpecEnsembleRefineIncremental pins the ensemble-aware refinement
// semantics: on a graph with total support (sprank == its structural upper
// bound) the incremental refinement saturates the bound and stops the
// ensemble before all K candidates run; on a rank-deficient graph the
// refiner proves maximality below the bound and stops too — in both cases
// the final matching is maximum, keeping the RefineExact contract.
func TestSpecEnsembleRefineIncremental(t *testing.T) {
	for _, ref := range []Refinement{RefineExact, RefinePushRelabel} {
		full := FullyIndecomposable(600, 2, 7) // sprank == 600 == upper bound
		res, err := full.Match(Spec{Seed: 1, Ensemble: 8, Refine: ref},
			&Options{ScalingIterations: 5, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Matching.Size != full.Sprank() {
			t.Fatalf("%v: refined size %d want sprank %d", ref, res.Matching.Size, full.Sprank())
		}
		if res.Candidates >= 8 {
			t.Fatalf("%v: refinement saturated the structural bound but all %d candidates ran", ref, res.Candidates)
		}
		if err := full.ValidateMatching(res.Matching); err != nil {
			t.Fatal(err)
		}
		// Provenance anchor: the reported winner is the candidate the
		// refinement warm-started from, so replaying its seed as a single
		// unrefined run must reproduce HeuristicSize exactly.
		replay, err := full.Match(Spec{Seed: res.WinnerSeed},
			&Options{ScalingIterations: 5, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if replay.Matching.Size != res.HeuristicSize {
			t.Fatalf("%v: winner seed %d replays to size %d, but HeuristicSize is %d",
				ref, res.WinnerSeed, replay.Matching.Size, res.HeuristicSize)
		}

		deficient := RoadNetwork(900, 2.5, 4) // sprank < upper bound
		res, err = deficient.Match(Spec{Seed: 1, Ensemble: 8, Refine: ref},
			&Options{ScalingIterations: 5, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Matching.Size != deficient.Sprank() {
			t.Fatalf("%v deficient: refined size %d want sprank %d", ref, res.Matching.Size, deficient.Sprank())
		}
		if !deficient.CertifyMaximum(res.Matching) {
			t.Fatalf("%v deficient: refined matching fails the König certificate", ref)
		}
	}

	// A Target under the refined path bounds the refinement itself: the
	// returned matching clears ⌈Target·UB⌉ but the sweep stops right there.
	g := RandomER(1000, 1000, 4, 23)
	res, err := g.Match(Spec{Seed: 1, Ensemble: 8, Refine: RefineExact, Target: 0.5},
		&Options{ScalingIterations: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := (g.SprankUpperBound() + 1) / 2
	if res.Matching.Size < want {
		t.Fatalf("refined target run: size %d below target bound %d", res.Matching.Size, want)
	}
	if res.Candidates != 1 {
		t.Fatalf("refined target 0.5: ran %d candidates, want 1", res.Candidates)
	}
	if err := g.ValidateMatching(res.Matching); err != nil {
		t.Fatal(err)
	}
}
