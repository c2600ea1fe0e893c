// Command matchtool computes a bipartite matching of a Matrix Market file
// with any of the library's algorithms and reports size, quality and time.
//
// Usage:
//
//	matchtool -in graph.mtx -alg twosided -iters 5
//	matchtool -in graph.mtx -alg twosided -refine exact   # heuristic jump-start + Hopcroft-Karp
//	matchtool -in graph.mtx -alg cheap-edge -refine pushrelabel  # auction-family refinement
//	matchtool -in graph.mtx -alg twosided -refine graft   # parallel MS-BFS-Graft refinement
//	matchtool -in graph.mtx -alg twosided -best-of 8      # best-of-8 seed ensemble, one scaling,
//	                                                      # candidates fanned out across the pool
//	matchtool -in graph.mtx -alg auction -epsilon 0.05    # weighted: matched weight
//	                                                      # within (1-eps) of optimal
//	matchtool -in graph.mtx -alg exact                    # exact maximum (cold solve)
//	matchtool -in graph.mtx -alg ks -seed 7
//	matchtool dyn -in graph.mtx -trace mutations.txt      # replay a mutation trace on a
//	                                                      # dynamic session (see dyn.go)
//
// Algorithms: onesided, twosided, ks (classic Karp-Sipser), ksp
// (multithreaded Karp-Sipser), cheap-edge, cheap-vertex, auction (the
// weighted ε-scaling auction; reads the MatrixMarket values as edge
// weights, pattern files weigh every edge 1.0) — all served by the
// declarative Spec engine and composable with -refine/-best-of/-target
// (the auction takes -best-of but rejects -refine/-target: its objective
// is weight, not cardinality) — plus exact, a cold maximum-matching solve
// with the engine -refine exact runs (Graph.MaximumMatching).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	bipartite "repro"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "dyn" {
		runDyn(os.Args[2:])
		return
	}
	var (
		in      = flag.String("in", "", "input MatrixMarket file (required)")
		alg     = flag.String("alg", "twosided", "algorithm: onesided|twosided|ks|ksp|cheap-edge|cheap-vertex|auction|exact")
		iters   = flag.Int("iters", 5, "Sinkhorn-Knopp scaling iterations (one/two-sided)")
		workers = flag.Int("workers", 0, "worker count; 0 = all CPUs")
		seed    = flag.Uint64("seed", 1, "the Spec's RNG seed; 0 means 1")
		refine  = flag.String("refine", "none", "refinement: none|exact|pushrelabel|graft (augment the heuristic matching to maximum cardinality; exact auto-selects graft on large instances)")
		bestOf  = flag.Int("best-of", 1, "ensemble size: run seeds seed..seed+K-1 on one shared scaling and keep the largest matching")
		target  = flag.Float64("target", 0, "ensemble early-stop: halt once size reaches target*sprank-upper-bound, in (0,1]")
		epsilon = flag.Float64("epsilon", 0, "auction approximation slack in (0,1): matched weight >= (1-eps)*optimal; 0 = library default (-alg auction only)")
		quality = flag.Bool("quality", false, "also compute sprank and report quality (costs an exact run)")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "matchtool: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	g, err := bipartite.ReadMatrixMarket(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "matchtool: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("graph: %d rows, %d cols, %d edges, avg degree %.2f\n",
		g.Rows(), g.Cols(), g.Edges(), g.AvgDegree())

	opt := &bipartite.Options{ScalingIterations: *iters, Workers: *workers}
	var mt *bipartite.Matching
	start := time.Now()
	switch *alg {
	case "exact":
		// A cold exact solve: no spec fields apply.
		if *refine != "none" || *bestOf > 1 || *target != 0 {
			fmt.Fprintln(os.Stderr, "matchtool: -refine/-best-of/-target do not apply to exact (already maximum)")
			os.Exit(2)
		}
		mt = g.MaximumMatching(nil)
	default:
		algorithm, err := bipartite.ParseAlgorithm(canonicalAlg(*alg))
		if err != nil {
			fmt.Fprintf(os.Stderr, "matchtool: unknown algorithm %q\n", *alg)
			os.Exit(2)
		}
		refinement, err := bipartite.ParseRefinement(*refine)
		if err != nil {
			fail(err)
		}
		spec := bipartite.Spec{
			Algorithm: algorithm,
			Seed:      *seed,
			Refine:    refinement,
			Ensemble:  *bestOf,
			Target:    *target,
			Epsilon:   *epsilon,
		}
		res, err := g.Match(spec, opt)
		fail(err)
		mt = res.Matching
		if res.Scaling != nil {
			fmt.Printf("scaling error after %d iters: %.4g\n", res.Scaling.Iterations, res.Scaling.Error)
		}
		if res.KSStats != nil {
			fmt.Printf("karp-sipser stats: %+v\n", *res.KSStats)
		}
		if spec.Ensemble > 1 {
			fmt.Printf("ensemble: %d candidates run, winner seed %d (size %d)\n",
				res.Candidates, res.WinnerSeed, res.HeuristicSize)
		}
		if res.Refined {
			fmt.Printf("refinement (%s): heuristic %d -> %d (+%d augmenting rows)\n",
				res.RefinedWith, res.HeuristicSize, mt.Size, mt.Size-res.HeuristicSize)
		}
		if algorithm == bipartite.AlgAuction {
			fmt.Printf("auction: matched weight %.6g (>= %.6g of optimal, eps %.3g), %d bidding rounds\n",
				res.MatchedWeight, 1-res.Epsilon, res.Epsilon, res.Rounds)
		}
	}
	elapsed := time.Since(start)

	if err := g.ValidateMatching(mt); err != nil {
		fmt.Fprintf(os.Stderr, "matchtool: INVALID MATCHING: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("algorithm: %s\nmatched: %d\ntime: %v\n", *alg, mt.Size, elapsed)
	if *quality {
		sp := g.Sprank()
		fmt.Printf("sprank: %d\nquality: %.4f\n", sp, float64(mt.Size)/float64(sp))
	}
}

// canonicalAlg maps matchtool's historic short names onto the wire names
// ParseAlgorithm understands.
func canonicalAlg(s string) string {
	switch s {
	case "ks":
		return "karpsipser"
	case "ksp":
		return "karpsipser-parallel"
	}
	return s
}

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "matchtool: %v\n", err)
		os.Exit(1)
	}
}
