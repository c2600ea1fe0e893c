// Quickstart: generate a sparse random bipartite graph, run both
// heuristics, and compare against the exact maximum matching.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	bipartite "repro"
)

func main() {
	// A 200k x 200k Erdős–Rényi graph with average degree 4 — the §4.1.3
	// workload class.
	fmt.Println("building graph ...")
	g := bipartite.RandomER(200000, 200000, 4, 42)
	fmt.Printf("graph: %d + %d vertices, %d edges\n", g.Rows(), g.Cols(), g.Edges())

	// Each heuristic is one Spec run by Graph.Match on a fresh session, so
	// both timings include their own Sinkhorn–Knopp scaling.
	opt := &bipartite.Options{ScalingIterations: 5}

	// OneSidedMatch: zero-synchronization heuristic, >= 0.632 guarantee.
	start := time.Now()
	one, err := g.Match(bipartite.Spec{Algorithm: bipartite.AlgOneSided, Seed: 1}, opt)
	if err != nil {
		panic(err)
	}
	tOne := time.Since(start)

	// TwoSidedMatch: 1-out sampling + exact parallel Karp-Sipser, ≈0.866.
	start = time.Now()
	two, err := g.Match(bipartite.Spec{Algorithm: bipartite.AlgTwoSided, Seed: 1}, opt)
	if err != nil {
		panic(err)
	}
	tTwo := time.Since(start)

	// Exact maximum for reference.
	start = time.Now()
	sprank := g.Sprank()
	tExact := time.Since(start)

	fmt.Printf("\n%-14s %10s %10s %8s\n", "algorithm", "matched", "quality", "time")
	fmt.Printf("%-14s %10d %10.4f %8v\n", "OneSided", one.Matching.Size,
		float64(one.Matching.Size)/float64(sprank), tOne.Round(time.Millisecond))
	fmt.Printf("%-14s %10d %10.4f %8v\n", "TwoSided", two.Matching.Size,
		float64(two.Matching.Size)/float64(sprank), tTwo.Round(time.Millisecond))
	fmt.Printf("%-14s %10d %10.4f %8v\n", "HopcroftKarp", sprank, 1.0,
		tExact.Round(time.Millisecond))

	if err := g.ValidateMatching(two.Matching); err != nil {
		panic(err)
	}
	fmt.Println("\nmatchings validated ✓")
}
