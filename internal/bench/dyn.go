package bench

import (
	"fmt"
	"math/rand"
	"time"

	bipartite "repro"
)

// DynRow is one row of the dyn experiment: a mutation trace replayed on
// one instance in one mode.
type DynRow struct {
	Instance string
	Edges    int
	Mode     string
	Batches  int
	Best     time.Duration // fastest replay of the whole trace
	Quality  float64       // |M|/sprank after the last batch
	Speedup  float64       // recompute time over this mode's time
}

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

// dynTrace pre-generates a mutation trace outside the timed region: per
// batch, a few deletions sampled from the live edge set and a few uniform
// insertions, so every mode replays the identical trace. The live edges
// are kept in a slice whose order depends only on the draws (a deletion
// moves the last edge into its slot, an insertion appends), with a map
// for membership only, so the trace is a function of (g, seed).
func dynTrace(g *bipartite.Graph, batches, perBatch int, seed uint64) []dynBatch {
	rng := rand.New(rand.NewSource(int64(seed)))
	live := make([][2]int, 0, g.Edges())
	pos := make(map[[2]int]int, g.Edges()) // index of each live edge in live
	insert := func(e [2]int) {
		if _, ok := pos[e]; !ok {
			pos[e] = len(live)
			live = append(live, e)
		}
	}
	for i := 0; i < g.Rows(); i++ {
		for _, j := range g.Neighbors(i) {
			insert([2]int{i, int(j)})
		}
	}
	trace := make([]dynBatch, batches)
	for b := range trace {
		t := &trace[b]
		for k := 0; k < perBatch/2; k++ {
			p := rng.Intn(len(live))
			e, last := live[p], live[len(live)-1]
			t.del = append(t.del, e)
			live[p], pos[last] = last, p
			live = live[:len(live)-1]
			delete(pos, e)
		}
		for k := 0; k < perBatch-perBatch/2; k++ {
			e := [2]int{rng.Intn(g.Rows()), rng.Intn(g.Cols())}
			t.ins = append(t.ins, e)
			insert(e)
		}
	}
	return trace
}

// Dyn measures batched mutation throughput two ways per spec tier:
// maintained (one DynSession absorbs the whole trace, repairing
// incrementally) versus recompute (the mutated snapshot is re-solved from
// scratch after every batch — the baseline any system without incremental
// maintenance pays). us/batch is the time per mutation batch; speedup is
// maintained-vs-recompute within the same spec tier, the number this
// experiment exists to track.
func Dyn(cfg Config) []DynRow {
	cfg = cfg.Defaults()
	batches := 15 * cfg.Runs // 150 at the default 10 runs
	const perBatch = 6
	opt := &bipartite.Options{ScalingIterations: 5}

	var rows []DynRow
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

			recomputeBest := timeBest(3, recompute)
			rows = append(rows, DynRow{Instance: inst.name, Edges: g.Edges(), Mode: "dyn/recompute-" + sp.name,
				Batches: batches, Best: recomputeBest, Quality: quality, Speedup: 1})
			maintainedBest := timeBest(3, maintained)
			rows = append(rows, DynRow{Instance: inst.name, Edges: g.Edges(), Mode: "dyn/maintained-" + sp.name,
				Batches: batches, Best: maintainedBest, Quality: quality,
				Speedup: float64(recomputeBest) / float64(maintainedBest)})
		}
	}

	t := table{
		Title:   "dyn: batched mutations, incremental maintenance vs recompute-per-batch",
		Headers: []string{"instance", "edges", "mode", "batch/s", "us/batch", "quality", "speedup"},
	}
	for _, r := range rows {
		perBatch := r.Best / time.Duration(r.Batches)
		t.AddRow(r.Instance, itoa(r.Edges), r.Mode,
			fmt.Sprintf("%.0f", float64(r.Batches)/r.Best.Seconds()),
			fmt.Sprintf("%.1f", float64(perBatch.Microseconds())),
			fmt.Sprintf("%.4f", r.Quality),
			f2(r.Speedup))
	}
	t.Write(cfg.Out)
	return rows
}
