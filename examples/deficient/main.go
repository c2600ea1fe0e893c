// Deficient: heuristics and scaling on matrices WITHOUT perfect matchings
// (the paper's §3.3). The Dulmage–Mendelsohn decomposition splits the
// matrix into horizontal/square/vertical parts; Sinkhorn–Knopp scaling
// drives the entries that cannot belong to any maximum matching (the "*"
// blocks) toward zero, which is why the heuristics keep working on
// deficient and rectangular inputs.
//
//	go run ./examples/deficient
package main

import (
	"fmt"

	bipartite "repro"
)

func main() {
	// A rectangular, rank-deficient random graph: 50k x 60k, avg degree 3.
	g := bipartite.RandomER(50000, 60000, 3, 3)
	fmt.Printf("graph: %d x %d, %d edges\n", g.Rows(), g.Cols(), g.Edges())

	sprank := g.Sprank()
	fmt.Printf("sprank: %d (deficiency: %d rows cannot be matched)\n\n",
		sprank, g.Rows()-sprank)

	// Dulmage–Mendelsohn: the square part S has a perfect matching; H has
	// extra columns; V extra rows.
	c := g.DulmageMendelsohn()
	fmt.Printf("Dulmage-Mendelsohn coarse decomposition:\n")
	fmt.Printf("  H (horizontal): %7d rows x %7d cols\n", c.HR, c.HC)
	fmt.Printf("  S (square):     %7d rows x %7d cols\n", c.SR, c.SC)
	fmt.Printf("  V (vertical):   %7d rows x %7d cols\n", c.VR, c.VC)
	_, blocks := g.FineDecomposition(c)
	fmt.Printf("  fine blocks in S: %d\n\n", blocks)

	// Quality vs scaling iterations: the paper's observation is that a
	// handful of iterations suffice even without total support.
	fmt.Printf("%6s %12s %12s %14s\n", "iters", "one-sided", "two-sided", "scaling error")
	for _, iters := range []int{0, 1, 5, 10} {
		opt := &bipartite.Options{ScalingIterations: iters}
		one, err := g.Match(bipartite.Spec{Algorithm: bipartite.AlgOneSided, Seed: 9}, opt)
		if err != nil {
			panic(err)
		}
		two, err := g.Match(bipartite.Spec{Algorithm: bipartite.AlgTwoSided, Seed: 9}, opt)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%6d %12.4f %12.4f %14.4g\n", iters,
			float64(one.Matching.Size)/float64(sprank),
			float64(two.Matching.Size)/float64(sprank),
			two.Scaling.Error)
	}
	fmt.Println("\n(compare with Table 2: quality climbs with iterations, and the")
	fmt.Println(" two-sided heuristic stays near its 0.866 conjecture even here)")
}
