package main

import (
	"fmt"
	"math/rand"
	"time"

	bipartite "repro"
	"repro/internal/bench"
)

// dynInstances are the mutation workloads: mid-sized instances where a
// full recompute per batch is clearly measurable against incremental
// maintenance, but small enough that the full tier sweep stays fast.
func dynInstances(scale string) []struct {
	name string
	g    *bipartite.Graph
} {
	n := 5000
	switch scale {
	case "tiny":
		n = 1000
	case "paper":
		n = 20000
	}
	return []struct {
		name string
		g    *bipartite.Graph
	}{
		{"er-dyn", bipartite.RandomER(n, n, 4, 7)},
		{"pl-dyn", bipartite.PowerLaw(n, 2, 1.8, n/20, 9)},
	}
}

// dynBatch is one pre-generated mutation batch.
type dynBatch struct {
	ins, del [][2]int
}

// dynTrace pre-generates a deterministic mutation trace outside the timed
// region: per batch, a few deletions sampled from the live edge set and a
// few uniform insertions, mirrored so every tier replays the identical
// trace.
func dynTrace(g *bipartite.Graph, batches, perBatch int, seed uint64) []dynBatch {
	rng := rand.New(rand.NewSource(int64(seed)))
	live := make([][2]int, 0, g.Edges())
	set := make(map[[2]int]bool, g.Edges())
	for i := 0; i < g.Rows(); i++ {
		for _, j := range g.Neighbors(i) {
			e := [2]int{i, int(j)}
			live = append(live, e)
			set[e] = true
		}
	}
	trace := make([]dynBatch, batches)
	for b := range trace {
		var t dynBatch
		for k := 0; k < perBatch/2; k++ {
			e := live[rng.Intn(len(live))]
			t.del = append(t.del, e)
			delete(set, e)
		}
		for k := 0; k < perBatch-perBatch/2; k++ {
			e := [2]int{rng.Intn(g.Rows()), rng.Intn(g.Cols())}
			t.ins = append(t.ins, e)
			set[e] = true
		}
		// Rebuild the sampling list; correctness only needs it to cover the
		// live set, and a full rebuild keeps the generator trivially right.
		live = live[:0]
		for e := range set {
			live = append(live, e)
		}
		trace[b] = t
	}
	return trace
}

// dyn measures batched mutation throughput two ways per spec tier:
// maintained (one DynSession absorbs the whole trace, repairing
// incrementally) versus recompute (the mutated snapshot is re-solved from
// scratch after every batch — the baseline any system without incremental
// maintenance pays). us/batch is the time per mutation batch; speedup is
// maintained-vs-recompute within the same spec tier, the number this
// experiment exists to track.
func dyn(cfg bench.Config) {
	cfg = cfg.Defaults()
	batches := 15 * cfg.Runs // 150 at the default 10 runs
	const perBatch = 6
	opt := &bipartite.Options{ScalingIterations: 5}

	tbl := &bench.Table{
		Title:   "dyn: batched mutations, incremental maintenance vs recompute-per-batch",
		Headers: []string{"instance", "edges", "mode", "batch/s", "us/batch", "quality", "speedup"},
	}
	for _, inst := range dynInstances(cfg.Scale) {
		g := inst.g
		trace := dynTrace(g, batches, perBatch, cfg.Seed)

		specs := []struct {
			name string
			spec bipartite.Spec
		}{
			{"exact", bipartite.Spec{Algorithm: bipartite.AlgTwoSided, Seed: cfg.Seed, Refine: bipartite.RefineExact}},
			{"heur", bipartite.Spec{Algorithm: bipartite.AlgTwoSided, Seed: cfg.Seed}},
		}
		for _, sp := range specs {
			var quality float64
			maintained := func() {
				sess, err := g.NewDynSession(sp.spec, opt)
				if err != nil {
					panic(err)
				}
				for _, t := range trace {
					if _, err := sess.Apply(t.ins, t.del); err != nil {
						panic(err)
					}
				}
				quality = sess.Snapshot().Quality(sess.Matching())
			}
			recompute := func() {
				// The graph still mutates through a (heuristic, cheapest)
				// session — some mutable representation is always needed — but
				// every batch is answered by a from-scratch solve of the
				// mutated snapshot.
				sess, err := g.NewDynSession(bipartite.Spec{Algorithm: bipartite.AlgTwoSided, Seed: cfg.Seed}, opt)
				if err != nil {
					panic(err)
				}
				for _, t := range trace {
					if _, err := sess.Apply(t.ins, t.del); err != nil {
						panic(err)
					}
					snap := sess.Snapshot()
					res, err := snap.Match(sp.spec, opt)
					if err != nil {
						panic(err)
					}
					quality = snap.Quality(res.Matching)
				}
			}

			recomputeBest := bench.TimeBest(3, recompute)
			emitDyn(tbl, inst.name, g.Edges(), "dyn/recompute-"+sp.name,
				batches, recomputeBest, quality, 1.0)
			maintainedBest := bench.TimeBest(3, maintained)
			emitDyn(tbl, inst.name, g.Edges(), "dyn/maintained-"+sp.name,
				batches, maintainedBest, quality, float64(recomputeBest)/float64(maintainedBest))
		}
	}
	tbl.Write(cfg.Out)
}

func emitDyn(tbl *bench.Table, inst string, edges int,
	mode string, batches int, best time.Duration, quality, speedup float64) {
	perBatch := best / time.Duration(batches)
	tbl.AddRow(inst, fmt.Sprintf("%d", edges), mode,
		fmt.Sprintf("%.0f", float64(batches)/best.Seconds()),
		fmt.Sprintf("%.1f", float64(perBatch.Microseconds())),
		fmt.Sprintf("%.4f", quality),
		fmt.Sprintf("%.2f", speedup))
}
