// Roadnetwork: matching on a road-network-like graph (the europe_osm /
// road_usa workload class of Table 3), with a thread sweep demonstrating
// the shared-memory scalability of both heuristics.
//
//	go run ./examples/roadnetwork
package main

import (
	"fmt"
	"time"

	bipartite "repro"
)

func main() {
	// Thinned-grid road network: ~1M vertices, average degree ≈ 2.3,
	// slightly rank-deficient like real road graphs.
	fmt.Println("building road network ...")
	g := bipartite.RoadNetwork(1000000, 2.3, 11)
	fmt.Printf("graph: %d vertices, %d edges, avg degree %.2f\n",
		g.Rows(), g.Edges(), g.AvgDegree())

	sprank := g.Sprank()
	fmt.Printf("sprank: %d (%.1f%% of n — road networks are deficient)\n\n",
		sprank, 100*float64(sprank)/float64(g.Rows()))

	// The graph keeps its scaling after the first call that needs it, so
	// scale it up front: every row of the sweep then times the same work,
	// sampling and matching.
	if _, err := g.NewMatcher(&bipartite.Options{ScalingIterations: 1}).Scale(); err != nil {
		panic(err)
	}

	fmt.Printf("%8s %12s %12s %10s %10s\n", "threads", "one-sided", "two-sided", "q(one)", "q(two)")
	var base1, base2 time.Duration
	for _, w := range []int{1, 2, 4, 8, 16} {
		opt := &bipartite.Options{ScalingIterations: 1, Workers: w}
		start := time.Now()
		one, err := g.Match(bipartite.Spec{Algorithm: bipartite.AlgOneSided, Seed: 5}, opt)
		if err != nil {
			panic(err)
		}
		t1 := time.Since(start)
		start = time.Now()
		two, err := g.Match(bipartite.Spec{Algorithm: bipartite.AlgTwoSided, Seed: 5}, opt)
		if err != nil {
			panic(err)
		}
		t2 := time.Since(start)
		if w == 1 {
			base1, base2 = t1, t2
		}
		fmt.Printf("%8d %9v x%.1f %9v x%.1f %10.4f %10.4f\n",
			w,
			t1.Round(time.Millisecond), float64(base1)/float64(t1),
			t2.Round(time.Millisecond), float64(base2)/float64(t2),
			float64(one.Matching.Size)/float64(sprank),
			float64(two.Matching.Size)/float64(sprank))
	}
}
