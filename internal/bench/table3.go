package bench

import (
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/par"
	"repro/internal/scale"
)

// Table3Row reproduces one row of Table 3: instance statistics, scaling
// error after 1/5/10 Sinkhorn–Knopp iterations and the sequential running
// times of the four kernels. As in the paper, the OneSidedMatch time
// includes ScaleSK (one iteration), and TwoSidedMatch includes ScaleSK and
// KarpSipserMT.
type Table3Row struct {
	Name, PaperName                             string
	N, Edges                                    int
	AvgDeg                                      float64
	SprankRatio                                 float64
	Err1, Err5, Err10                           float64
	TScale, TOneSided, TKarpSipserMT, TTwoSided time.Duration
}

// Table3 measures all catalog instances sequentially (one worker).
func Table3(cfg Config) []Table3Row {
	cfg = cfg.Defaults()
	var rows []Table3Row
	for _, inst := range Catalog(cfg.Scale) {
		rows = append(rows, table3One(cfg, inst))
	}
	report3(cfg, rows)
	return rows
}

func table3One(cfg Config, inst Instance) Table3Row {
	a := inst.Build()
	at := a.Transpose()
	row := Table3Row{
		Name: inst.Name, PaperName: inst.PaperName,
		N: a.RowsN, Edges: a.NNZ(), AvgDeg: a.AvgDegree(),
	}
	row.SprankRatio = float64(exact.HopcroftKarp(a, nil).Size) / float64(a.RowsN)

	// Scaling error after 1, 5, 10 iterations (one run of 10 records all).
	res, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: 10, Workers: 1})
	if err != nil {
		panic(err)
	}
	row.Err1, row.Err5, row.Err10 = res.History[1], res.History[5], res.History[10]

	seq := core.Options{Workers: 1, Policy: par.Dynamic, KSPolicy: par.Guided, Seed: cfg.Seed}
	reps := 3
	if cfg.Scale == "paper" {
		reps = 1
	}

	// ScaleSK, one iteration, sequential.
	row.TScale = timeBest(reps, func() {
		if _, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: 1, Workers: 1}); err != nil {
			panic(err)
		}
	})
	// OneSidedMatch = ScaleSK(1) + sampling + write.
	row.TOneSided = timeBest(reps, func() {
		r, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: 1, Workers: 1})
		if err != nil {
			panic(err)
		}
		core.OneSided(a, r.DR, r.DC, seq)
	})
	// KarpSipserMT alone on a choice graph drawn by a TwoSided session.
	g := core.TwoSided(a, at, res.DR, res.DC, seq).Graph
	row.TKarpSipserMT = timeBest(reps, func() { core.KarpSipserMT(g, seq) })
	// TwoSidedMatch = ScaleSK(1) + sampling both sides + KarpSipserMT.
	row.TTwoSided = timeBest(reps, func() {
		r, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: 1, Workers: 1})
		if err != nil {
			panic(err)
		}
		core.TwoSided(a, at, r.DR, r.DC, seq)
	})
	return row
}

func report3(cfg Config, rows []Table3Row) {
	t := table{
		Title: "Table 3: instance statistics, scaling error and sequential times (ms)",
		Headers: []string{"instance", "paper", "n", "edges", "deg",
			"sprank/n", "err@1", "err@5", "err@10",
			"ScaleSK", "OneSided", "KarpSipMT", "TwoSided"},
	}
	for _, r := range rows {
		t.AddRow(r.Name, r.PaperName, itoa(r.N), itoa(r.Edges), f1(r.AvgDeg),
			f2(r.SprankRatio), f2(r.Err1), f2(r.Err5), f2(r.Err10),
			ms(r.TScale), ms(r.TOneSided), ms(r.TKarpSipserMT), ms(r.TTwoSided))
	}
	t.Write(cfg.Out)
}
