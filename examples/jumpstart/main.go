// Jumpstart: the use case that motivates cheap matching heuristics in the
// paper's introduction — initializing an exact maximum-matching solver.
// A good warm start removes most augmenting-path searches.
//
//	go run ./examples/jumpstart
package main

import (
	"fmt"
	"time"

	bipartite "repro"
)

func run(g *bipartite.Graph, name string, warm *bipartite.Matching) {
	start := time.Now()
	mt, freeRows := g.MaximumMatchingFrom(warm)
	elapsed := time.Since(start)
	fmt.Printf("%-22s searches=%8d  matched=%8d  time=%8v\n",
		name, freeRows, mt.Size, elapsed.Round(time.Millisecond))
}

func main() {
	// A mesh-like instance: augmenting paths get long, so warm starts pay.
	g := bipartite.Grid3D(60, 60, 60, false)
	fmt.Printf("graph: %d vertices per side, %d edges\n\n", g.Rows(), g.Edges())

	// Cold exact solve: every row needs an augmenting-path search.
	run(g, "cold MC21", nil)

	// Warm starts of increasing quality, each one Spec run on a shared
	// session (the two scaled heuristics share one scaling). A result
	// aliases the session, so each is used before the next Run.
	m := g.NewMatcher(&bipartite.Options{ScalingIterations: 5, Seed: 7})
	for _, h := range []struct {
		name string
		alg  bipartite.Algorithm
	}{
		{"cheap-vertex + MC21", bipartite.AlgCheapVertex},
		{"karp-sipser + MC21", bipartite.AlgKarpSipser},
		{"one-sided + MC21", bipartite.AlgOneSided},
		{"two-sided + MC21", bipartite.AlgTwoSided},
	} {
		res, err := m.Run(bipartite.Spec{Algorithm: h.alg})
		if err != nil {
			panic(err)
		}
		run(g, h.name, res.Matching)
	}

	// The declarative form of the whole pipeline: one Spec asks for a
	// best-of-4 TwoSided ensemble (one shared scaling) refined to maximum
	// cardinality — heuristic jump-start and exact augmentation in a
	// single request, the same request type the batch layer and
	// cmd/matchserve execute.
	start := time.Now()
	res, err := g.Match(bipartite.Spec{
		Algorithm: bipartite.AlgTwoSided,
		Seed:      7,
		Ensemble:  4,
		Refine:    bipartite.RefineExact,
	}, &bipartite.Options{ScalingIterations: 5})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nSpec{TwoSided, Ensemble: 4, Refine: Exact}:\n")
	fmt.Printf("  winner seed %d of %d candidates, heuristic %d -> exact %d, time %v\n",
		res.WinnerSeed, res.Candidates, res.HeuristicSize, res.Matching.Size,
		time.Since(start).Round(time.Millisecond))
}
