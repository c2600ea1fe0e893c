package bench

import (
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/par"
	"repro/internal/scale"
)

// SpeedupRow holds the thread sweep for one instance and one kernel:
// Speedup[i] is t(1 thread) / t(Threads[i]).
type SpeedupRow struct {
	Name, PaperName string
	Threads         []int
	Speedup         []float64
	T1              time.Duration
}

// Fig3 reproduces Figures 3a and 3b: speedups of ScaleSK (one iteration)
// and of the full OneSidedMatch across the thread sweep. OneSidedMatch
// samples in parallel and claims its columns in one serial pass, so its
// speedup is bounded by that pass.
func Fig3(cfg Config) (scaleRows, oneRows []SpeedupRow) {
	cfg = cfg.Defaults()
	for _, inst := range Catalog(cfg.Scale) {
		sRow, oRow := fig3One(cfg, inst)
		scaleRows = append(scaleRows, sRow)
		oneRows = append(oneRows, oRow)
	}
	reportSpeedups(cfg, "Figure 3a: ScaleSK speedups (1 iteration)", scaleRows)
	reportSpeedups(cfg, "Figure 3b: OneSidedMatch speedups (serial claim pass)", oneRows)
	return scaleRows, oneRows
}

func fig3One(cfg Config, inst Instance) (sRow, oRow SpeedupRow) {
	a := inst.Build()
	at := a.Transpose()
	sRow = SpeedupRow{Name: inst.Name, PaperName: inst.PaperName, Threads: cfg.Threads}
	oRow = sRow

	times := func(w int) (time.Duration, time.Duration) {
		ts := timeBest(3, func() {
			if _, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: 1, Workers: w}); err != nil {
				panic(err)
			}
		})
		to := timeBest(3, func() {
			r, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: 1, Workers: w})
			if err != nil {
				panic(err)
			}
			core.OneSided(a, r.DR, r.DC, core.Options{
				Workers: w, Policy: par.Dynamic, KSPolicy: par.Guided, Seed: cfg.Seed})
		})
		return ts, to
	}
	t1s, t1o := times(1)
	sRow.T1, oRow.T1 = t1s, t1o
	for _, w := range cfg.Threads {
		ts, to := times(w)
		sRow.Speedup = append(sRow.Speedup, float64(t1s)/float64(ts))
		oRow.Speedup = append(oRow.Speedup, float64(t1o)/float64(to))
	}
	return sRow, oRow
}

// Fig4 reproduces Figures 4a and 4b: speedups of the KarpSipserMT kernel
// (the paper's atomic Algorithm 4, on a pre-sampled choice graph) and of
// the full TwoSidedMatch, which samples in parallel and runs Karp–Sipser
// serially.
func Fig4(cfg Config) (ksRows, twoRows []SpeedupRow) {
	cfg = cfg.Defaults()
	for _, inst := range Catalog(cfg.Scale) {
		kRow, tRow := fig4One(cfg, inst)
		ksRows = append(ksRows, kRow)
		twoRows = append(twoRows, tRow)
	}
	reportSpeedups(cfg, "Figure 4a: KarpSipserMT speedups", ksRows)
	reportSpeedups(cfg, "Figure 4b: TwoSidedMatch speedups (serial Karp–Sipser)", twoRows)
	return ksRows, twoRows
}

func fig4One(cfg Config, inst Instance) (kRow, tRow SpeedupRow) {
	a := inst.Build()
	at := a.Transpose()
	res, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: 1})
	if err != nil {
		panic(err)
	}
	g := core.TwoSided(a, at, res.DR, res.DC,
		core.Options{Policy: par.Dynamic, KSPolicy: par.Guided, Seed: cfg.Seed}).Graph

	kRow = SpeedupRow{Name: inst.Name, PaperName: inst.PaperName, Threads: cfg.Threads}
	tRow = kRow
	times := func(w int) (time.Duration, time.Duration) {
		o := core.Options{Workers: w, Policy: par.Dynamic, KSPolicy: par.Guided, Seed: cfg.Seed}
		tk := timeBest(3, func() { core.KarpSipserMT(g, o) })
		tt := timeBest(3, func() {
			r, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: 1, Workers: w})
			if err != nil {
				panic(err)
			}
			core.TwoSided(a, at, r.DR, r.DC, o)
		})
		return tk, tt
	}
	t1k, t1t := times(1)
	kRow.T1, tRow.T1 = t1k, t1t
	for _, w := range cfg.Threads {
		tk, tt := times(w)
		kRow.Speedup = append(kRow.Speedup, float64(t1k)/float64(tk))
		tRow.Speedup = append(tRow.Speedup, float64(t1t)/float64(tt))
	}
	return kRow, tRow
}

func reportSpeedups(cfg Config, title string, rows []SpeedupRow) {
	headers := []string{"instance", "paper", "t1(ms)"}
	for _, w := range cfg.Threads {
		headers = append(headers, "x"+itoa(w))
	}
	t := table{Title: title, Headers: headers}
	for _, r := range rows {
		cells := []string{r.Name, r.PaperName, ms(r.T1)}
		for _, s := range r.Speedup {
			cells = append(cells, f2(s))
		}
		t.AddRow(cells...)
	}
	t.Write(cfg.Out)
}

// QualityRow holds Figure 5 data: quality of both heuristics at 0, 1 and 5
// scaling iterations for one instance.
type QualityRow struct {
	Name, PaperName string
	Iters           []int
	OneQ, TwoQ      []float64
}

// Fig5 reproduces Figures 5a and 5b. The paper's reference lines are
// 0.632 (OneSided guarantee) and 0.866 (TwoSided conjecture).
func Fig5(cfg Config) []QualityRow {
	cfg = cfg.Defaults()
	iters := []int{0, 1, 5}
	var rows []QualityRow
	for _, inst := range Catalog(cfg.Scale) {
		a := inst.Build()
		at := a.Transpose()
		sp := exact.HopcroftKarp(a, nil).Size
		row := QualityRow{Name: inst.Name, PaperName: inst.PaperName, Iters: iters}
		for _, it := range iters {
			res, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: it})
			if err != nil {
				panic(err)
			}
			o := core.Options{Policy: par.Dynamic, KSPolicy: par.Guided, Seed: cfg.Seed}
			_, oneSize := core.OneSided(a, res.DR, res.DC, o)
			two := core.TwoSided(a, at, res.DR, res.DC, o)
			row.OneQ = append(row.OneQ, float64(oneSize)/float64(sp))
			row.TwoQ = append(row.TwoQ, float64(two.Matching.Size)/float64(sp))
		}
		rows = append(rows, row)
	}
	t := table{
		Title: "Figure 5: matching quality vs scaling iterations " +
			"(guarantees: OneSided 0.632, TwoSided 0.866)",
		Headers: []string{"instance", "paper",
			"one@0", "one@1", "one@5", "two@0", "two@1", "two@5"},
	}
	for _, r := range rows {
		t.AddRow(r.Name, r.PaperName,
			f3(r.OneQ[0]), f3(r.OneQ[1]), f3(r.OneQ[2]),
			f3(r.TwoQ[0]), f3(r.TwoQ[1]), f3(r.TwoQ[2]))
	}
	t.Write(cfg.Out)
	return rows
}
