package bench

import (
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/scale"
)

// Table2Row reproduces one (d, iterations) cell group of Table 2: matching
// quality of both heuristics on sprank-deficient Erdős–Rényi matrices.
type Table2Row struct {
	D      int
	Iter   int
	Sprank int
	OneQ   float64 // min over runs
	TwoQ   float64 // min over runs
}

// Table2 runs the square experiment and the rectangular follow-up (m = n,
// n·1.2 columns at 5 iterations). n <= 0 picks the scale's size: 5000 at
// "tiny", 50000 at "small" and the paper's 100000 at "paper".
func Table2(cfg Config, n int) (rows []Table2Row, rectOne, rectTwo float64) {
	cfg = cfg.Defaults()
	if n <= 0 {
		switch cfg.Scale {
		case "tiny":
			n = 5000
		case "paper":
			n = 100000
		default:
			n = 50000
		}
	}
	iters := []int{0, 1, 5, 10}
	for _, d := range []int{2, 3, 4, 5} {
		a := gen.ERAvgDeg(n, n, float64(d), cfg.Seed+uint64(d))
		at := a.Transpose()
		sp := exact.HopcroftKarp(a, nil).Size
		for _, it := range iters {
			res, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: it})
			if err != nil {
				panic(err)
			}
			row := Table2Row{D: d, Iter: it, Sprank: sp, OneQ: 1, TwoQ: 1}
			for r := 0; r < cfg.Runs; r++ {
				o := core.Options{Policy: par.Dynamic, KSPolicy: par.Guided,
					Seed: cfg.Seed + uint64(r)*104729}
				_, oneSize := core.OneSided(a, res.DR, res.DC, o)
				if q := float64(oneSize) / float64(sp); q < row.OneQ {
					row.OneQ = q
				}
				two := core.TwoSided(a, at, res.DR, res.DC, o)
				if q := float64(two.Matching.Size) / float64(sp); q < row.TwoQ {
					row.TwoQ = q
				}
			}
			rows = append(rows, row)
		}
	}

	// Rectangular case: m×1.2m, 5 scaling iterations (paper reports
	// minima 0.753 / 0.930).
	rectOne, rectTwo = rectangular(cfg, n, n+n/5)
	report2(cfg, n, rows, rectOne, rectTwo)
	return rows, rectOne, rectTwo
}

func rectangular(cfg Config, m, n int) (oneQ, twoQ float64) {
	a := gen.ERAvgDeg(m, n, 3, cfg.Seed+99)
	at := a.Transpose()
	sp := exact.HopcroftKarp(a, nil).Size
	res, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: 5})
	if err != nil {
		panic(err)
	}
	oneQ, twoQ = 1, 1
	for r := 0; r < cfg.Runs; r++ {
		o := core.Options{Policy: par.Dynamic, KSPolicy: par.Guided,
			Seed: cfg.Seed + uint64(r)*15485863}
		_, oneSize := core.OneSided(a, res.DR, res.DC, o)
		if q := float64(oneSize) / float64(sp); q < oneQ {
			oneQ = q
		}
		two := core.TwoSided(a, at, res.DR, res.DC, o)
		if q := float64(two.Matching.Size) / float64(sp); q < twoQ {
			twoQ = q
		}
	}
	return oneQ, twoQ
}

func report2(cfg Config, n int, rows []Table2Row, rectOne, rectTwo float64) {
	t := table{
		Title: "Table 2: quality on sprank-deficient ER matrices (n=" + itoa(n) +
			", min of " + itoa(cfg.Runs) + " runs)",
		Headers: []string{"d", "iter", "sprank", "OneSided", "TwoSided"},
	}
	for _, r := range rows {
		t.AddRow(itoa(r.D), itoa(r.Iter), itoa(r.Sprank), f3(r.OneQ), f3(r.TwoQ))
	}
	t.AddRow("rect", "5", "-", f3(rectOne), f3(rectTwo))
	t.Write(cfg.Out)
}
