package bench

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/ks"
	"repro/internal/par"
	"repro/internal/scale"
)

// Table1Row reproduces one row of Table 1: the classic Karp–Sipser quality
// versus TwoSidedMatch at 0, 1, 5 and 10 scaling iterations on the Fig. 2
// adversarial family. Every quality number is the minimum over Config.Runs
// randomized executions, as in the paper.
type Table1Row struct {
	K        int
	KSQual   float64
	Iters    []int     // the iteration counts sampled
	ScaleErr []float64 // scaling error after Iters[i] iterations
	TwoQual  []float64 // min TwoSidedMatch quality at Iters[i]
}

// Table1 runs the experiment. n defaults to the paper's 3200 (pass 0).
func Table1(cfg Config, n int) []Table1Row {
	cfg = cfg.Defaults()
	if n <= 0 {
		n = 3200
	}
	iters := []int{0, 1, 5, 10}
	kvals := []int{2, 4, 8, 16, 32}
	rows := make([]Table1Row, 0, len(kvals))
	for _, k := range kvals {
		a := gen.BadKS(n, k)
		at := a.Transpose()
		row := Table1Row{K: k, Iters: iters}

		// Baseline: classic Karp–Sipser, min quality over runs.
		row.KSQual = 1.0
		for r := 0; r < cfg.Runs; r++ {
			mt, _ := ks.Run(a, at, cfg.Seed+uint64(r))
			if q := float64(mt.Size) / float64(n); q < row.KSQual {
				row.KSQual = q
			}
		}

		// TwoSidedMatch at each scaling-iteration budget.
		for _, it := range iters {
			res, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: it})
			if err != nil {
				panic(err)
			}
			row.ScaleErr = append(row.ScaleErr, res.Err)
			worst := 1.0
			for r := 0; r < cfg.Runs; r++ {
				out := core.TwoSided(a, at, res.DR, res.DC, core.Options{
					Policy: par.Dynamic, KSPolicy: par.Guided,
					Seed: cfg.Seed + uint64(r)*7919,
				})
				if q := float64(out.Matching.Size) / float64(n); q < worst {
					worst = q
				}
			}
			row.TwoQual = append(row.TwoQual, worst)
		}
		rows = append(rows, row)
	}
	report1(cfg, n, rows)
	return rows
}

func report1(cfg Config, n int, rows []Table1Row) {
	t := table{
		Title: "Table 1: KS vs TwoSidedMatch on the hard family (n=" +
			itoa(n) + ", min of " + itoa(cfg.Runs) + " runs)",
		Headers: []string{"k", "KarpSipser",
			"q@0it", "err@1it", "q@1it", "err@5it", "q@5it", "err@10it", "q@10it"},
	}
	for _, r := range rows {
		t.AddRow(itoa(r.K), f3(r.KSQual),
			f3(r.TwoQual[0]),
			f3(r.ScaleErr[1]), f3(r.TwoQual[1]),
			f3(r.ScaleErr[2]), f3(r.TwoQual[2]),
			f3(r.ScaleErr[3]), f3(r.TwoQual[3]))
	}
	t.Write(cfg.Out)
}

func itoa(v int) string { return strconv.Itoa(v) }
