package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/ks"
	"repro/internal/par"
	"repro/internal/scale"
	"repro/internal/sparse"
)

// speedupVs1 is anchor/best, the speedup over the 1-worker run — or 0,
// which the tables print as "-", when workers exceed runtime.NumCPU(): a
// pool wider than the machine measures time slicing, not parallel
// scaling.
func speedupVs1(anchor, best time.Duration, workers int) float64 {
	if workers > runtime.NumCPU() {
		return 0
	}
	return float64(anchor) / float64(best)
}

// speedupCell prints a speedup for the tables, "-" where it was left out.
func speedupCell(v float64) string {
	if v == 0 {
		return "-"
	}
	return f2(v)
}

// perfInstances is the subset of the catalog the perf experiment sweeps:
// one mesh, one road network, one power-law instance — small enough to
// keep the experiment in seconds, structured enough to stress static and
// skewed load.
func perfInstances(scale string) []Instance {
	catalog := Catalog(scale)
	want := map[string]bool{"mesh3d7": true, "roadnet21": true, "heavytail": true}
	var out []Instance
	for _, inst := range catalog {
		if want[inst.Name] {
			out = append(out, inst)
		}
	}
	if len(out) == 0 {
		// Catalog names changed; fall back to the first three entries.
		out = catalog[:3]
	}
	return out
}

// Perf measures OneSidedMatch, TwoSidedMatch and the parallel Karp–Sipser
// baseline across the configured thread sweep on a caller-owned worker
// pool and prints a table of wall clock, quality and speedup over one
// worker. Every heuristic call reuses one pool sized to the largest thread
// count, the scaling stage's exported sampling totals, and the paper's
// (dynamic,512)/(guided) schedules.
func Perf(cfg Config) {
	cfg = cfg.Defaults()
	maxThreads := 1
	for _, th := range cfg.Threads {
		if th > maxThreads {
			maxThreads = th
		}
	}
	pool := par.NewPool(maxThreads)
	defer pool.Close()

	reps := 3
	tbl := &Table{
		Title:   "perf: wall clock and quality across the thread sweep",
		Headers: []string{"instance", "edges", "heuristic", "threads", "ms", "quality", "speedup"},
	}
	for _, inst := range perfInstances(cfg.Scale) {
		a := inst.Build()
		at := a.Transpose()
		sprank := exact.Sprank(a)
		for _, h := range []string{"onesided", "twosided", "ksparallel"} {
			// The speedup denominator is always a measured 1-worker run,
			// even when the sweep starts higher, so mixed thread lists stay
			// comparable.
			anchor := TimeBest(reps, func() { runHeuristic(h, a, at, cfg.Seed, 1, pool, sprank) })
			for _, th := range cfg.Threads {
				var quality float64
				run := func() {
					quality = runHeuristic(h, a, at, cfg.Seed, th, pool, sprank)
				}
				best := anchor
				if th != 1 {
					best = TimeBest(reps, run)
				} else {
					run() // one extra pass to fill in the quality
				}
				tbl.AddRow(inst.Name, fmt.Sprintf("%d", a.NNZ()), h,
					fmt.Sprintf("%d", th), ms(best), f3(quality), speedupCell(speedupVs1(anchor, best, th)))
			}
		}
	}
	tbl.Write(cfg.Out)
}

// runHeuristic executes one heuristic end to end (scaling included where
// the heuristic uses it) and returns the quality |M|/sprank.
func runHeuristic(h string, a, at *sparse.CSR, seed uint64, workers int, pool *par.Pool, sprank int) float64 {
	switch h {
	case "ksparallel":
		mt := ks.RunApproxPool(a, at, seed, workers, pool)
		return exact.Quality(mt.Size, sprank)
	case "onesided", "twosided":
		sres, err := scale.SinkhornKnopp(a, at, scale.Options{
			MaxIters: 5, Workers: workers, Policy: par.Dynamic, Pool: pool,
		})
		if err != nil {
			panic(err)
		}
		opt := core.Options{
			Workers: workers, Policy: par.Dynamic, Chunk: par.DefaultChunk,
			KSPolicy: par.Guided, Seed: seed, Pool: pool,
			RowTotals: sres.RSum, ColTotals: sres.CSum,
		}
		if h == "onesided" {
			_, size := core.OneSided(a, sres.DR, sres.DC, opt)
			return exact.Quality(size, sprank)
		}
		res := core.TwoSided(a, at, sres.DR, sres.DC, opt)
		return exact.Quality(res.Matching.Size, sprank)
	default:
		panic("bench: unknown heuristic " + h)
	}
}
