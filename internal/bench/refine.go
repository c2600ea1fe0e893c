package bench

import (
	"fmt"
	"time"

	"repro/internal/cheap"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/sparse"
)

// refineCases are the refinement tier's instances: the adversarial
// families built to stress augmenting-path engines. Heavy rank deficiency
// (30% of the rows are structurally unmatchable) keeps thousands of
// vertices permanently exposed on one side — the side the engines do not
// search from (exact.SearchColumns) — long thin paths maximize
// augmenting-path length and tie the two sides, degree skew unbalances
// the BFS levels, and the rank-deficient block beside its transpose puts
// doomed vertices on both sides, so no search side avoids them. On that
// last family push-relabel raises every doomed root's label one step at a
// time and runs for minutes at these sizes, so pushRelabel leaves it out.
func refineCases(scale string, seed uint64) []struct {
	name        string
	a           *sparse.CSR
	pushRelabel bool
} {
	n := 150000
	switch scale {
	case "tiny":
		n = 60000
	case "paper":
		n = 1000000
	}
	rd := gen.RankDeficient(n, n*3/10, 6, seed)
	return []struct {
		name        string
		a           *sparse.CSR
		pushRelabel bool
	}{
		{"rankdef", rd, true},
		{"longthin", gen.LongThinPath(2 * n), true},
		{"skewdeg", gen.SkewedDegree(n, n*4/5, 6, 3, seed), true},
		{"bothsides", gen.DirectSum(rd, rd.Transpose()), false},
	}
}

// Refine measures the three exact refinement engines — Hopcroft–Karp,
// push-relabel and the parallel MS-BFS-Graft — completing one shared
// heuristic warm start (the §2.1 cheap 1/2-approximation, so the tier
// measures the jump-start tail the paper's application cares about), and
// prints a table. Every engine searches from the side the library's
// refinements search from: on the transpose, from the mirrored warm
// start, when an instance has fewer non-isolated columns than rows. The
// sequential engines run once; graft runs at 1, 2 and 4 workers, and its
// speedup is against its own 1-worker run (left out above the host's CPU
// count, as in Perf). The vs-hk column is the cross-engine ratio:
// sequential Hopcroft–Karp time over this engine's time on the same
// instance and warm start.
func Refine(cfg Config) {
	cfg = cfg.Defaults()
	graftWidths := []int{1, 2, 4}
	pool := par.NewPool(graftWidths[len(graftWidths)-1])
	defer pool.Close()

	reps := 5
	tbl := &Table{
		Title:   "refine: exact-refinement engines from one cheap warm start",
		Headers: []string{"instance", "edges", "engine", "threads", "ms", "quality", "speedup", "vs-hk"},
	}
	ws := &exact.Workspace{}
	for _, tc := range refineCases(cfg.Scale, cfg.Seed) {
		a := tc.a
		at := a.Transpose()
		init := cheap.RandomVertex(a, cfg.Seed)
		if exact.SearchColumns(a.RowsN-a.EmptyRows(), at.RowsN-at.EmptyRows()) {
			a, at, init = at, a, exact.Mirror(&exact.Matching{}, init)
		}
		liveCols := at.RowsN - at.EmptyRows()
		sprank := exact.HopcroftKarp(a, init).Size

		var hk time.Duration // Hopcroft–Karp's time on this instance, once measured
		record := func(engine string, workers int, run func() *exact.Matching, anchor time.Duration) time.Duration {
			var size int
			best := TimeBest(reps, func() { size = run().Size })
			if size != sprank {
				panic(fmt.Sprintf("bench: refine %s/%s reached %d, sprank is %d", tc.name, engine, size, sprank))
			}
			speedup, vsHK := 1.0, 1.0
			if anchor > 0 {
				speedup = speedupVs1(anchor, best, workers)
			}
			if hk > 0 {
				vsHK = float64(hk) / float64(best)
			}
			tbl.AddRow(tc.name, fmt.Sprintf("%d", a.NNZ()), engine,
				fmt.Sprintf("%d", workers), ms(best), f3(exact.Quality(size, sprank)), speedupCell(speedup), f2(vsHK))
			return best
		}

		hk = record("refine-hk", 1, func() *exact.Matching {
			return exact.NewHKRefinerLive(a, init, ws, liveCols).Run()
		}, 0)
		if tc.pushRelabel {
			record("refine-pushrelabel", 1, func() *exact.Matching {
				return exact.NewPRRefinerWs(a, init, ws).Run()
			}, 0)
		}
		var graftAnchor time.Duration
		for _, th := range graftWidths {
			th := th
			best := record("refine-graft", th, func() *exact.Matching {
				r := exact.NewGraftRefinerWs(a, init, ws)
				r.SetTranspose(at)
				if th > 1 {
					r.SetParallel(pool, th)
				}
				return r.Run()
			}, graftAnchor)
			if th == 1 {
				graftAnchor = best
			}
		}
	}
	tbl.Write(cfg.Out)
}
