package bench

import (
	bipartite "repro"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/ks"
	"repro/internal/par"
	"repro/internal/scale"
	"repro/internal/sparse"
)

// ConjectureRow is one size point of the Conjecture 1 evidence: on the
// all-ones matrix, TwoSidedMatch matches a 2(1-ρ)n ≈ 0.8656n fraction
// asymptotically (ρ solves x·eˣ = 1), while OneSidedMatch sits at
// 1 - 1/e ≈ 0.6321.
type ConjectureRow struct {
	N          int
	OneFrac    float64
	TwoFrac    float64
	TwoIsMaxOf float64 // max matching of the sampled 1-out graph / n
}

// Conjecture runs the experiment over growing n.
func Conjecture(cfg Config, sizes []int) []ConjectureRow {
	cfg = cfg.Defaults()
	if len(sizes) == 0 {
		sizes = []int{500, 1000, 2000, 4000, 8000}
	}
	var rows []ConjectureRow
	for _, n := range sizes {
		a := gen.Full(n)
		at := a.Transpose()
		res, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: 1})
		if err != nil {
			panic(err)
		}
		o := core.Options{Policy: par.Dynamic, KSPolicy: par.Guided, Seed: cfg.Seed + uint64(n)}
		_, oneSize := core.OneSided(a, res.DR, res.DC, o)
		two := core.TwoSided(a, at, res.DR, res.DC, o)
		// Cross-check: the sampled 1-out graph's true maximum matching.
		maxOneOut := exact.HopcroftKarp(two.Graph.ToCSR(), nil).Size
		rows = append(rows, ConjectureRow{
			N:          n,
			OneFrac:    float64(oneSize) / float64(n),
			TwoFrac:    float64(two.Matching.Size) / float64(n),
			TwoIsMaxOf: float64(maxOneOut) / float64(n),
		})
	}
	t := table{
		Title: "Conjecture 1: random 1-out graph matching fraction " +
			"(targets: OneSided 0.632, TwoSided " + f3(bipartite.TwoSidedConjecture()) + ")",
		Headers: []string{"n", "OneSided/n", "TwoSided/n", "max(1-out)/n"},
	}
	for _, r := range rows {
		t.AddRow(itoa(r.N), f3(r.OneFrac), f3(r.TwoFrac), f3(r.TwoIsMaxOf))
	}
	t.Write(cfg.Out)
	return rows
}

// QualityFIRow is one point of the §4.1.1 study on matrices with total
// support: minimum observed quality over Config.Runs runs after 10 scaling
// iterations, to be compared against 0.632 / 0.866.
type QualityFIRow struct {
	N, Extras  int
	OneQ, TwoQ float64
}

// QualityFI sweeps fully indecomposable instances.
func QualityFI(cfg Config, sizes []int) []QualityFIRow {
	cfg = cfg.Defaults()
	if len(sizes) == 0 {
		sizes = []int{1000, 10000, 50000}
	}
	var rows []QualityFIRow
	for _, n := range sizes {
		for _, extras := range []int{1, 2, 4} {
			a := gen.FullyIndecomposable(n, extras, cfg.Seed+uint64(n+extras))
			at := a.Transpose()
			res, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: 10})
			if err != nil {
				panic(err)
			}
			row := QualityFIRow{N: n, Extras: extras, OneQ: 1, TwoQ: 1}
			for r := 0; r < cfg.Runs; r++ {
				o := core.Options{Policy: par.Dynamic, KSPolicy: par.Guided,
					Seed: cfg.Seed + uint64(r)*2654435761}
				_, oneSize := core.OneSided(a, res.DR, res.DC, o)
				if q := float64(oneSize) / float64(n); q < row.OneQ {
					row.OneQ = q
				}
				two := core.TwoSided(a, at, res.DR, res.DC, o)
				if q := float64(two.Matching.Size) / float64(n); q < row.TwoQ {
					row.TwoQ = q
				}
			}
			rows = append(rows, row)
		}
	}
	t := table{
		Title: "§4.1.1: quality on total-support matrices, 10 SK iterations " +
			"(guarantees 0.632 / 0.866, min of " + itoa(cfg.Runs) + " runs)",
		Headers: []string{"n", "extras", "OneSided", "TwoSided", "one>=0.632", "two>=0.866"},
	}
	for _, r := range rows {
		t.AddRow(itoa(r.N), itoa(r.Extras), f3(r.OneQ), f3(r.TwoQ),
			boolMark(r.OneQ >= 0.632), boolMark(r.TwoQ >= 0.866))
	}
	t.Write(cfg.Out)
	return rows
}

func boolMark(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}

// AblationRow compares design choices: Sinkhorn–Knopp vs Ruiz scaling
// error at equal iteration budgets, and the resulting TwoSidedMatch
// quality.
type AblationRow struct {
	Iters    int
	SKErr    float64
	RuizErr  float64
	SKQual   float64
	RuizQual float64
}

// AblationScaling compares the two scaling methods (a §2.2 discussion
// point: SK converges faster on unsymmetric matrices).
func AblationScaling(cfg Config, n int) []AblationRow {
	cfg = cfg.Defaults()
	if n <= 0 {
		n = 20000
	}
	a := gen.FullyIndecomposable(n, 3, cfg.Seed)
	at := a.Transpose()
	var rows []AblationRow
	for _, it := range []int{1, 2, 5, 10, 20} {
		sk, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: it})
		if err != nil {
			panic(err)
		}
		rz, err := scale.Ruiz(a, at, scale.Options{MaxIters: it})
		if err != nil {
			panic(err)
		}
		o := core.Options{Policy: par.Dynamic, KSPolicy: par.Guided, Seed: cfg.Seed}
		skTwo := core.TwoSided(a, at, sk.DR, sk.DC, o)
		rzTwo := core.TwoSided(a, at, rz.DR, rz.DC, o)
		rows = append(rows, AblationRow{
			Iters: it, SKErr: sk.Err, RuizErr: rz.Err,
			SKQual:   float64(skTwo.Matching.Size) / float64(n),
			RuizQual: float64(rzTwo.Matching.Size) / float64(n),
		})
	}
	t := table{
		Title:   "Ablation: Sinkhorn-Knopp vs Ruiz at equal iteration budgets (n=" + itoa(n) + ")",
		Headers: []string{"iters", "SK err", "Ruiz err", "SK two-q", "Ruiz two-q"},
	}
	for _, r := range rows {
		t.AddRow(itoa(r.Iters), f3(r.SKErr), f3(r.RuizErr), f3(r.SKQual), f3(r.RuizQual))
	}
	t.Write(cfg.Out)
	return rows
}

// KSVariantRow compares the three Karp–Sipser flavors on one instance:
// the classic exact-degree-tracking sequential KS, the Azad-style
// lock-free parallel approximation (paper ref [4]) and TwoSidedMatch
// (scaling + exact KS on the 1-out graph).
type KSVariantRow struct {
	Name                         string
	ExactKSQ, ApproxKSQ, TwoQ    float64
	ExactKSMs, ApproxKSMs, TwoMs float64
}

// AblationKSVariants runs the comparison on a sparse ER instance and the
// adversarial family — the narrative of the paper's §1/§2.1.
func AblationKSVariants(cfg Config, n int) []KSVariantRow {
	cfg = cfg.Defaults()
	if n <= 0 {
		n = 100000
	}
	instances := []struct {
		name  string
		build func() *sparse.CSR
	}{
		{"er-d2", func() *sparse.CSR { return gen.ERAvgDeg(n, n, 2, cfg.Seed) }},
		{"er-d5", func() *sparse.CSR { return gen.ERAvgDeg(n, n, 5, cfg.Seed) }},
		{"badks-k32", func() *sparse.CSR { return gen.BadKS(3200, 32) }},
	}
	var rows []KSVariantRow
	for _, inst := range instances {
		a := inst.build()
		at := a.Transpose()
		sp := exact.HopcroftKarp(a, nil).Size
		row := KSVariantRow{Name: inst.name}

		var size int
		d := timeBest(3, func() {
			mt, _ := ks.Run(a, at, cfg.Seed)
			size = mt.Size
		})
		row.ExactKSQ = float64(size) / float64(sp)
		row.ExactKSMs = float64(d.Microseconds()) / 1000

		d = timeBest(3, func() {
			size = ks.RunApprox(a, at, cfg.Seed, 0).Size
		})
		row.ApproxKSQ = float64(size) / float64(sp)
		row.ApproxKSMs = float64(d.Microseconds()) / 1000

		res, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: 5})
		if err != nil {
			panic(err)
		}
		d = timeBest(3, func() {
			o := core.Options{Policy: par.Dynamic, KSPolicy: par.Guided, Seed: cfg.Seed}
			size = core.TwoSided(a, at, res.DR, res.DC, o).Matching.Size
		})
		row.TwoQ = float64(size) / float64(sp)
		row.TwoMs = float64(d.Microseconds()) / 1000
		rows = append(rows, row)
	}
	t := table{
		Title: "Ablation: Karp-Sipser variants (exact seq. vs lock-free parallel [4] vs TwoSided)",
		Headers: []string{"instance", "exactKS q", "ms", "parKS q", "ms",
			"TwoSided q", "ms"},
	}
	for _, r := range rows {
		t.AddRow(r.Name, f3(r.ExactKSQ), f1(r.ExactKSMs),
			f3(r.ApproxKSQ), f1(r.ApproxKSMs), f3(r.TwoQ), f1(r.TwoMs))
	}
	t.Write(cfg.Out)
	return rows
}

// AblationSchedule compares loop scheduling policies for OneSidedMatch on
// a degree-skewed instance (the Table 3 load-imbalance discussion).
func AblationSchedule(cfg Config, n int) map[string]float64 {
	cfg = cfg.Defaults()
	if n <= 0 {
		n = 60000
	}
	a := gen.PowerLaw(n, 15, 1.35, 30000, cfg.Seed)
	at := a.Transpose()
	res, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: 1})
	if err != nil {
		panic(err)
	}
	w := cfg.Threads[len(cfg.Threads)-1]
	out := map[string]float64{}
	t := table{
		Title:   "Ablation: scheduling policy for OneSidedMatch on a skewed instance (threads=" + itoa(w) + ")",
		Headers: []string{"policy", "time(ms)"},
	}
	for _, pol := range []par.Policy{par.Static, par.Dynamic, par.Guided} {
		d := timeBest(3, func() {
			core.OneSided(a, res.DR, res.DC, core.Options{
				Workers: w, Policy: pol, KSPolicy: pol, Seed: cfg.Seed})
		})
		outMs := float64(d.Microseconds()) / 1000.0
		out[pol.String()] = outMs
		t.AddRow(pol.String(), f1(outMs))
	}
	t.Write(cfg.Out)
	return out
}
