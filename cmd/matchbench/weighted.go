package main

import (
	"fmt"
	"time"

	bipartite "repro"
	"repro/internal/bench"
)

// weighted benchmarks the ε-scaling auction tier: matched-weight
// maximization on uniform and heavy-tailed weight assignments, single
// runs at two slacks plus a best-of-K bidding-seed ensemble. us/solve
// is the time per full auction solve; quality is the certified ratio
// weight/DualBound — the LP-dual certificate the engine returns, an
// upper bound on the optimum, so the column is a sound lower bound on
// weight/optimal at any instance size (the (1−ε) contract guarantees it
// ≥ 1−ε; it is typically far closer to 1). speedup is each mode's
// throughput relative to the default single run on the same instance.
func weighted(cfg bench.Config) {
	cfg = cfg.Defaults()
	n := 4000
	switch cfg.Scale {
	case "tiny":
		n = 1000
	case "paper":
		n = 20000
	}
	instances := []struct {
		name string
		g    *bipartite.Graph
	}{
		{"er-wuniform", bipartite.RandomER(n, n, 5, cfg.Seed).RandomWeights(bipartite.WeightUniform, cfg.Seed)},
		{"er-wskew", bipartite.RandomER(n, n, 5, cfg.Seed).RandomWeights(bipartite.WeightSkewed, cfg.Seed+1)},
		{"pl-wskew", bipartite.PowerLaw(n, 2, 1.8, n/20, cfg.Seed+2).RandomWeights(bipartite.WeightSkewed, cfg.Seed+3)},
	}
	modes := []struct {
		name string
		spec bipartite.Spec
	}{
		{"weighted/auction", bipartite.Spec{Algorithm: bipartite.AlgAuction, Seed: cfg.Seed, Epsilon: 0.05}},
		{"weighted/auction-coarse", bipartite.Spec{Algorithm: bipartite.AlgAuction, Seed: cfg.Seed, Epsilon: 0.5}},
		{"weighted/auction-best4", bipartite.Spec{Algorithm: bipartite.AlgAuction, Seed: cfg.Seed, Epsilon: 0.05, Ensemble: 4}},
	}
	opt := &bipartite.Options{Workers: 1}

	tbl := &bench.Table{
		Title:   "weighted: ε-scaling auction, matched weight within (1−ε) of optimal",
		Headers: []string{"instance", "edges", "mode", "us/solve", "weight", "quality", "rounds", "speedup"},
	}
	for _, inst := range instances {
		var base time.Duration
		for _, mode := range modes {
			var res *bipartite.MatchResult
			best := bench.TimeBest(3, func() {
				r, err := inst.g.Match(mode.spec, opt)
				if err != nil {
					panic(err)
				}
				res = r
			})
			quality := res.MatchedWeight / res.DualBound
			speedup := 1.0
			if mode.name == "weighted/auction" {
				base = best
			} else if base > 0 {
				speedup = float64(base) / float64(best)
			}
			tbl.AddRow(inst.name, fmt.Sprintf("%d", inst.g.Edges()), mode.name,
				fmt.Sprintf("%.0f", float64(best)/float64(time.Microsecond)),
				fmt.Sprintf("%.1f", res.MatchedWeight),
				fmt.Sprintf("%.4f", quality),
				fmt.Sprintf("%d", res.Rounds),
				fmt.Sprintf("%.2f", speedup))
		}
	}
	tbl.Write(cfg.Out)
}
