// Jumpstart: the use case that motivates cheap matching heuristics in the
// paper's introduction — initializing an exact maximum-matching solver.
// Each line completes one warm start to a maximum matching with
// Graph.MaximumMatching and prints how many rows the warm start left free
// (the rows the exact solver still has to match) and how long the
// completion took; the first line is the cold solve.
//
// A good warm start leaves few rows free, yet on this mesh completing it
// still costs more than the cold solve: 0.22–1.39 s per warm start against
// 7–13 ms cold, on a 2-vCPU Xeon with Go 1.24. When a warm start pays for
// itself, and which engine should complete it, is still open.
//
//	go run ./examples/jumpstart
package main

import (
	"fmt"
	"time"

	bipartite "repro"
)

func run(g *bipartite.Graph, name string, warm *bipartite.Matching) {
	free := g.Rows()
	if warm != nil {
		free -= warm.Size
	}
	start := time.Now()
	mt := g.MaximumMatching(warm)
	elapsed := time.Since(start)
	fmt.Printf("%-26s free rows=%8d  matched=%8d  time=%8v\n",
		name, free, mt.Size, elapsed.Round(time.Millisecond))
}

func main() {
	// A mesh-like instance: augmenting paths get long, so warm starts pay.
	g := bipartite.Grid3D(60, 60, 60, false)
	fmt.Printf("graph: %d vertices per side, %d edges\n\n", g.Rows(), g.Edges())

	// Cold exact solve: every row starts free.
	run(g, "cold", nil)

	// Warm starts of increasing quality, each one Spec run on a shared
	// session (the two scaled heuristics share one scaling). A result
	// aliases the session, so each is used before the next Run.
	m := g.NewMatcher(&bipartite.Options{ScalingIterations: 5})
	for _, h := range []struct {
		name string
		alg  bipartite.Algorithm
	}{
		{"cheap-vertex + exact", bipartite.AlgCheapVertex},
		{"karp-sipser + exact", bipartite.AlgKarpSipser},
		{"one-sided + exact", bipartite.AlgOneSided},
		{"two-sided + exact", bipartite.AlgTwoSided},
	} {
		res, err := m.Run(bipartite.Spec{Algorithm: h.alg, Seed: 7})
		if err != nil {
			panic(err)
		}
		run(g, h.name, res.Matching)
	}

	// The declarative form of the whole pipeline: one Spec asks for a
	// best-of-4 TwoSided ensemble (one shared scaling) refined to maximum
	// cardinality — heuristic jump-start and exact augmentation in a
	// single request, the same request type Server and cmd/matchserve
	// execute.
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
