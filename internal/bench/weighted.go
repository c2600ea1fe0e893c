package bench

import (
	"fmt"
	"time"

	bipartite "repro"
)

// WeightedRow is one row of the weighted experiment: one auction mode on
// one weighted instance.
type WeightedRow struct {
	Instance  string
	Edges     int
	Mode      string
	Best      time.Duration // fastest solve
	Weight    float64       // matched weight
	DualBound float64       // the auction's LP-dual certificate
	Rounds    int
	Speedup   float64 // the default single run's time over this mode's
}

// Weighted benchmarks the ε-scaling auction tier: matched-weight
// maximization on uniform and heavy-tailed weight assignments, single
// runs at two slacks plus a best-of-K bidding-seed ensemble. us/solve
// is the time per full auction solve; quality is the certified ratio
// weight/DualBound — the LP-dual certificate the engine returns, an
// upper bound on the optimum, so the column is a sound lower bound on
// weight/optimal at any instance size (the (1−ε) contract guarantees it
// ≥ 1−ε; it is typically far closer to 1). speedup is each mode's
// throughput relative to the default single run on the same instance.
func Weighted(cfg Config) []WeightedRow {
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

	var rows []WeightedRow
	for _, inst := range instances {
		var base time.Duration
		for _, mode := range modes {
			var res *bipartite.MatchResult
			best := timeBest(3, func() {
				r, err := inst.g.Match(mode.spec, opt)
				if err != nil {
					panic(err)
				}
				res = r
			})
			speedup := 1.0
			if mode.name == "weighted/auction" {
				base = best
			} else if base > 0 {
				speedup = float64(base) / float64(best)
			}
			rows = append(rows, WeightedRow{
				Instance: inst.name, Edges: inst.g.Edges(), Mode: mode.name, Best: best,
				Weight: res.MatchedWeight, DualBound: res.DualBound, Rounds: res.Rounds, Speedup: speedup,
			})
		}
	}

	t := table{
		Title:   "weighted: ε-scaling auction, matched weight within (1−ε) of optimal",
		Headers: []string{"instance", "edges", "mode", "us/solve", "weight", "quality", "rounds", "speedup"},
	}
	for _, r := range rows {
		t.AddRow(r.Instance, itoa(r.Edges), r.Mode,
			fmt.Sprintf("%.0f", float64(r.Best)/float64(time.Microsecond)),
			f1(r.Weight), fmt.Sprintf("%.4f", r.Weight/r.DualBound), itoa(r.Rounds), f2(r.Speedup))
	}
	t.Write(cfg.Out)
	return rows
}
