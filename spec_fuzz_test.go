package bipartite

import (
	"fmt"
	"testing"
)

// fuzzSpecCase is one FuzzSpec input decoded into a graph of at most
// 40 × 40 vertices, the Options its sessions run under, and a Spec that
// passes Validate.
type fuzzSpecCase struct {
	g     *Graph
	iters int
	spec  Spec
	split int // where an eligible full ensemble is cut into two sub-ranges
}

// decodeFuzzSpec maps fuzz inputs onto a case. The graph is an ER graph
// of average degree 1–6, a fully indecomposable square matrix or a 2-D
// mesh, weighted when the Spec asks for AlgAuction. Every Algorithm and
// Refinement, seeds from 0, ensembles of 0–6, targets and seed sub-ranges
// are reachable; fields Validate would reject for the chosen Algorithm
// are cleared. Seeds stay below 2^32, so an ensemble's seeds never wrap
// and "the smallest seed" is the earliest candidate.
func decodeFuzzSpec(shape uint16, kind uint8, gseed uint64, iters, alg, ref uint8,
	seed uint64, ens, tgt uint8, sub uint16, wdist uint8) fuzzSpecCase {
	rows, cols := 1+int(shape%40), 1+int(shape/40%40)
	var g *Graph
	switch k := kind % 8; {
	case k < 6:
		g = RandomER(rows, cols, float64(1+k), gseed)
	case k == 6:
		g = FullyIndecomposable(rows, 1+int(kind/8%3), gseed)
	default:
		g = Grid2D(1+rows%6, 1+cols%6)
	}
	spec := Spec{
		Algorithm: Algorithm(alg % uint8(algCount)),
		Refine:    Refinement(ref % uint8(refineCount)),
		Seed:      seed % (1 << 32),
		Ensemble:  int(ens % 7),
	}
	if t := tgt % 5; t != 0 {
		spec.Target = float64(t) / 4
	}
	if spec.Algorithm == AlgAuction {
		dist := WeightUniform
		if wdist%2 == 1 {
			dist = WeightSkewed
		}
		g = g.RandomWeights(dist, gseed+1)
		spec.Refine, spec.Target = RefineNone, 0
		spec.Epsilon = []float64{0, 0.1, 0.3}[wdist/2%3]
	}
	c := fuzzSpecCase{g: g, iters: []int{-1, 0, 2}[iters%3], spec: spec}
	if splittable(spec) {
		c.split = 1 + int(sub>>8)%(spec.Ensemble-1)
		if sub%4 != 0 {
			off := int(sub/4) % spec.Ensemble
			c.spec.SeedOffset = off
			c.spec.SeedCount = 1 + int(sub/64)%(spec.Ensemble-off)
		}
	}
	return c
}

// splittable reports whether a Spec's ensemble may be split into seed
// sub-ranges: an ensemble that never stops early.
func splittable(s Spec) bool {
	return s.Ensemble > 1 && (s.Algorithm == AlgAuction || (s.Refine == RefineNone && s.Target == 0))
}

// ownResult copies a result out of the session it aliases.
func ownResult(r *MatchResult) MatchResult {
	out := *r
	out.Matching = cloneMatching(r.Matching)
	if r.KSStats != nil {
		st := *r.KSStats
		out.KSStats = &st
	}
	return out
}

// sameResult fails t unless two results agree field for field: equal
// mates, equal Karp–Sipser statistics, and every other field equal (the
// Scaling by identity: both come from the Graph's cell).
func sameResult(t *testing.T, what string, got, want MatchResult) {
	t.Helper()
	cmpMates(t, what, got.Matching, want.Matching)
	if (got.KSStats == nil) != (want.KSStats == nil) || (got.KSStats != nil && *got.KSStats != *want.KSStats) {
		t.Fatalf("%s: KSStats %+v, want %+v", what, got.KSStats, want.KSStats)
	}
	got.Matching, want.Matching = nil, nil
	got.KSStats, want.KSStats = nil, nil
	if got != want {
		t.Fatalf("%s: result %+v, want %+v", what, got, want)
	}
}

// FuzzSpec is the Spec-level oracle: it decodes a small graph and a valid
// Spec and checks that
//   - the matching is valid;
//   - a Workers: 1 session and one on a width-3 pool agree on the mates
//     and the provenance (AlgKarpSipserParallel excepted);
//   - a refined run without a Target reaches Sprank(), passes
//     CertifyMaximum and names the engine that ran;
//   - Seed 0 runs as Seed 1;
//   - a full ensemble that may be split reduces from two sub-ranges —
//     the larger (for AlgAuction, heavier) winner, ties toward the smaller
//     seed — to the full sweep's winner seed and mates;
//   - Server.Match answers with the Workers: 1 session's MatchResult, field
//     for field, and a Matching the caller owns.
//
// The seed corpus in testdata/fuzz/FuzzSpec covers every Algorithm and
// Refinement; go test runs it, and
// go test -fuzz FuzzSpec -fuzztime 60s -run '^$' . explores further.
func FuzzSpec(f *testing.F) {
	pool := NewPool(3)
	f.Cleanup(pool.Close)
	f.Fuzz(func(t *testing.T, shape uint16, kind uint8, gseed uint64, iters, alg, ref uint8,
		seed uint64, ens, tgt uint8, sub uint16, wdist uint8) {
		c := decodeFuzzSpec(shape, kind, gseed, iters, alg, ref, seed, ens, tgt, sub, wdist)
		g, spec := c.g, c.spec
		if err := spec.Validate(); err != nil {
			t.Fatalf("decoded an invalid spec %+v: %v", spec, err)
		}
		label := fmt.Sprintf("%dx%d %+v iters %d", g.Rows(), g.Cols(), spec, c.iters)
		opt1 := &Options{ScalingIterations: c.iters, Workers: 1}
		m := g.NewMatcher(opt1)
		run := func(s Spec) MatchResult {
			t.Helper()
			res, err := m.Run(s)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return ownResult(res)
		}
		res := run(spec)
		if err := g.ValidateMatching(res.Matching); err != nil {
			t.Fatalf("%s: %v", label, err)
		}

		if spec.Algorithm != AlgKarpSipserParallel {
			wide, err := g.Match(spec, &Options{ScalingIterations: c.iters, Pool: pool})
			if err != nil {
				t.Fatalf("%s, width 3: %v", label, err)
			}
			cmpMates(t, label+", width 3", wide.Matching, res.Matching)
			if wide.WinnerSeed != res.WinnerSeed || wide.Candidates != res.Candidates ||
				wide.HeuristicSize != res.HeuristicSize || wide.RefinedWith != res.RefinedWith ||
				wide.MatchedWeight != res.MatchedWeight {
				t.Fatalf("%s: width-3 provenance %+v, width 1 %+v", label, *wide, res)
			}
		}

		if spec.Refine != RefineNone && spec.Target == 0 {
			if res.Matching.Size != g.Sprank() || !g.CertifyMaximum(res.Matching) {
				t.Fatalf("%s: refined size %d, sprank %d, certified %v",
					label, res.Matching.Size, g.Sprank(), g.CertifyMaximum(res.Matching))
			}
			if !res.Refined || res.RefinedWith != spec.Refine {
				t.Fatalf("%s: refined %v with %v", label, res.Refined, res.RefinedWith)
			}
		}

		if spec.Seed == 0 {
			one := spec
			one.Seed = 1
			sameResult(t, label+", seed 1", run(one), res)
		}

		if splittable(spec) && spec.SeedCount == 0 {
			lo, hi := spec, spec
			lo.SeedOffset, lo.SeedCount = 0, c.split
			hi.SeedOffset, hi.SeedCount = c.split, spec.Ensemble-c.split
			a, b := run(lo), run(hi)
			win := a
			if spec.Algorithm == AlgAuction && b.MatchedWeight > a.MatchedWeight ||
				spec.Algorithm != AlgAuction && b.Matching.Size > a.Matching.Size {
				win = b
			}
			if win.WinnerSeed != res.WinnerSeed {
				t.Fatalf("%s: split at %d reduces to seed %d, the full sweep's winner is %d",
					label, c.split, win.WinnerSeed, res.WinnerSeed)
			}
			cmpMates(t, fmt.Sprintf("%s, split at %d", label, c.split), win.Matching, res.Matching)
		}

		srv := NewServerConfig(opt1, ServerConfig{MaxBatch: 1, Queue: 1})
		defer srv.Close()
		resp := srv.Match(Request{Graph: g, Spec: spec})
		if resp.Err != nil {
			t.Fatalf("%s: Server.Match: %v", label, resp.Err)
		}
		sameResult(t, label+", Server.Match", resp.MatchResult, res)
		// The slot's next request reuses its arena; the first response's
		// Matching must not change with it.
		next := spec
		next.Seed += 7
		if r := srv.Match(Request{Graph: g, Spec: next}); r.Err != nil {
			t.Fatalf("%s: second Server.Match: %v", label, r.Err)
		}
		cmpMates(t, label+", Server.Match after the next request", resp.Matching, res.Matching)
	})
}
