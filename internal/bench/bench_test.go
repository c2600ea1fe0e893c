package bench

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	bipartite "repro"
)

func tinyConfig(out *bytes.Buffer) Config {
	return Config{Scale: "tiny", Threads: []int{1, 2}, Runs: 2, Seed: 1, Out: out}.Defaults()
}

func TestCatalogBuildsAndMatchesClasses(t *testing.T) {
	insts := Catalog("tiny")
	if len(insts) != 12 {
		t.Fatalf("catalog has %d instances, want 12 (one per Table 3 row)", len(insts))
	}
	seen := map[string]bool{}
	for _, inst := range insts {
		if seen[inst.PaperName] {
			t.Fatalf("duplicate analog for %s", inst.PaperName)
		}
		seen[inst.PaperName] = true
		a := inst.Build()
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if a.NNZ() == 0 {
			t.Fatalf("%s: empty instance", inst.Name)
		}
	}
	for _, paper := range []string{"atmosmodl", "audikw_1", "cage15", "channel",
		"europe_osm", "Hamrle3", "hugebubbles", "kkt_power", "nlpkkt240",
		"road_usa", "torso1", "venturiLevel3"} {
		if !seen[paper] {
			t.Fatalf("no analog for %s", paper)
		}
	}
}

func TestCatalogScalesMonotone(t *testing.T) {
	tiny := Catalog("tiny")[0].Build()
	small := Catalog("small")[0].Build()
	if tiny.RowsN >= small.RowsN {
		t.Fatalf("tiny (%d) not smaller than small (%d)", tiny.RowsN, small.RowsN)
	}
}

func TestCatalogRejectsUnknownScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown scale accepted")
		}
	}()
	Catalog("galactic")
}

func TestTable1Tiny(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	rows := Table1(cfg, 256)
	if len(rows) != 5 {
		t.Fatalf("table 1 rows %d want 5", len(rows))
	}
	// The headline claim: at k=32 with 10 iterations, TwoSided beats KS.
	last := rows[len(rows)-1]
	if last.TwoQual[3] <= last.KSQual {
		t.Fatalf("k=32: TwoSided@10it %.3f not better than KS %.3f",
			last.TwoQual[3], last.KSQual)
	}
	// Scaling error decreases with iterations.
	for _, r := range rows {
		if r.ScaleErr[3] >= r.ScaleErr[1] {
			t.Fatalf("k=%d: error did not drop from 1 to 10 iters (%v -> %v)",
				r.K, r.ScaleErr[1], r.ScaleErr[3])
		}
	}
	if !strings.Contains(out.String(), "Table 1") {
		t.Fatal("report missing")
	}
}

func TestTable2Tiny(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	rows, rectOne, rectTwo := Table2(cfg, 3000)
	if len(rows) != 16 {
		t.Fatalf("table 2 rows %d want 16 (4 densities x 4 iteration counts)", len(rows))
	}
	// More scaling iterations should not hurt quality much; 10 iters beats
	// 0 iters for every density (the paper's monotone trend).
	for d := 0; d < 4; d++ {
		base := rows[d*4+0]
		best := rows[d*4+3]
		if best.TwoQ < base.TwoQ-0.01 {
			t.Fatalf("d=%d: two-sided quality fell from %.3f (0 it) to %.3f (10 it)",
				base.D, base.TwoQ, best.TwoQ)
		}
	}
	if rectOne <= 0.5 || rectTwo <= rectOne {
		t.Fatalf("rectangular case suspicious: one=%.3f two=%.3f", rectOne, rectTwo)
	}
}

func TestTable3TinySingleInstance(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	inst := Catalog("tiny")[5] // band4: cheap to build and measure
	row := table3One(cfg, inst)
	if row.N == 0 || row.Edges == 0 {
		t.Fatal("empty stats")
	}
	if row.SprankRatio <= 0 || row.SprankRatio > 1 {
		t.Fatalf("sprank ratio %v", row.SprankRatio)
	}
	if row.TScale <= 0 || row.TOneSided <= 0 || row.TKarpSipserMT <= 0 || row.TTwoSided <= 0 {
		t.Fatal("non-positive timings")
	}
	if row.Err10 > row.Err1 {
		t.Fatalf("scaling error rose: %v -> %v", row.Err1, row.Err10)
	}
}

func TestConjectureTinyApproachesTarget(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	rows := Conjecture(cfg, []int{2000, 4000})
	target := bipartite.TwoSidedConjecture()
	if math.Abs(target-0.8656) > 0.001 {
		t.Fatalf("conjecture target %v want ≈0.8656", target)
	}
	for _, r := range rows {
		if math.Abs(r.TwoFrac-target) > 0.02 {
			t.Fatalf("n=%d: two-sided fraction %v far from %v", r.N, r.TwoFrac, target)
		}
		if math.Abs(r.OneFrac-(1-1/math.E)) > 0.02 {
			t.Fatalf("n=%d: one-sided fraction %v far from 0.632", r.N, r.OneFrac)
		}
		// KarpSipserMT must equal the true maximum on the 1-out graph.
		if r.TwoFrac != r.TwoIsMaxOf {
			t.Fatalf("n=%d: KarpSipserMT %v != exact %v on 1-out graph",
				r.N, r.TwoFrac, r.TwoIsMaxOf)
		}
	}
}

func TestQualityFITiny(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	rows := QualityFI(cfg, []int{2000})
	if len(rows) != 3 {
		t.Fatalf("rows %d want 3", len(rows))
	}
	for _, r := range rows {
		if r.OneQ < 0.632 {
			t.Fatalf("n=%d extras=%d: one-sided %v below guarantee", r.N, r.Extras, r.OneQ)
		}
		if r.TwoQ < 0.86 {
			t.Fatalf("n=%d extras=%d: two-sided %v below conjecture", r.N, r.Extras, r.TwoQ)
		}
	}
}

func TestAblationScalingTiny(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	rows := AblationScaling(cfg, 3000)
	if len(rows) != 5 {
		t.Fatalf("rows %d", len(rows))
	}
	// At every budget SK's error is no worse than Ruiz's (the §2.2 claim).
	for _, r := range rows {
		if r.SKErr > r.RuizErr+1e-9 {
			t.Fatalf("iters=%d: SK err %v worse than Ruiz %v", r.Iters, r.SKErr, r.RuizErr)
		}
	}
}

func TestFig5TinyQualityAboveGuarantees(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	rows := Fig5(cfg)
	if len(rows) != 12 {
		t.Fatalf("rows %d want 12", len(rows))
	}
	for _, r := range rows {
		// After 5 iterations both heuristics must be within striking
		// distance of their guarantees on every instance (the paper's
		// Figure 5 observation; quality is measured against sprank so
		// deficient instances behave like the rest).
		if r.OneQ[2] < 0.55 {
			t.Fatalf("%s: one-sided@5 %v too low", r.Name, r.OneQ[2])
		}
		if r.TwoQ[2] < 0.80 {
			t.Fatalf("%s: two-sided@5 %v too low", r.Name, r.TwoQ[2])
		}
	}
}

func TestSpeedupHarnessShape(t *testing.T) {
	// Run the Fig3 harness on a single tiny instance to validate plumbing
	// (actual speedups are meaningless at tiny scale).
	var out bytes.Buffer
	cfg := Config{Scale: "tiny", Threads: []int{1, 2}, Runs: 1, Seed: 1, Out: &out}.Defaults()
	inst := Catalog("tiny")[5]
	sRow, oRow := fig3One(cfg, inst)
	if len(sRow.Speedup) != 2 || len(oRow.Speedup) != 2 {
		t.Fatal("fig3 speedup sweep shape wrong")
	}
	if sRow.T1 <= 0 {
		t.Fatal("baseline time missing")
	}
	kRow, tRow := fig4One(cfg, inst)
	if len(kRow.Speedup) != 2 || len(tRow.Speedup) != 2 {
		t.Fatal("fig4 speedup sweep shape wrong")
	}
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	tab := table{Title: "demo", Headers: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	tab.Write(&buf)
	s := buf.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "333") {
		t.Fatalf("rendering:\n%s", s)
	}
}

func TestWalkupTiny(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	rows := Walkup(cfg, []int{2000})
	if len(rows) != 1 {
		t.Fatal("rows")
	}
	r := rows[0]
	if math.Abs(r.OneOut-0.866) > 0.02 {
		t.Fatalf("1-out fraction %v want ≈0.866", r.OneOut)
	}
	if r.TwoOut != 1 || r.ThreeOut != 1 {
		t.Fatalf("2-out/3-out should be perfect: %v %v", r.TwoOut, r.ThreeOut)
	}
}

func TestUndirectedExtensionTiny(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	rows := Undirected(cfg, 10000)
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Frac < 0.6 || r.Frac > 1.0 {
			t.Fatalf("%s: matched fraction %v out of range", r.Name, r.Frac)
		}
	}
}

func TestAblationKSVariantsTiny(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	rows := AblationKSVariants(cfg, 5000)
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.ExactKSQ <= 0 || r.ApproxKSQ <= 0 || r.TwoQ <= 0 {
			t.Fatalf("%s: degenerate qualities %+v", r.Name, r)
		}
		// On the adversarial instance TwoSided must beat both KS flavors.
		if r.Name == "badks-k32" && (r.TwoQ <= r.ExactKSQ || r.TwoQ <= r.ApproxKSQ) {
			t.Fatalf("badks: TwoSided %v not ahead of KS %v / %v",
				r.TwoQ, r.ExactKSQ, r.ApproxKSQ)
		}
	}
}

func TestDynTraceReproducible(t *testing.T) {
	g := bipartite.RandomER(500, 500, 4, 7)
	a, b := dynTrace(g, 40, 6, 3), dynTrace(g, 40, 6, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two traces from the same graph and seed differ")
	}
}

func TestDynTiny(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	rows := Dyn(cfg)
	if len(rows) != 8 {
		t.Fatalf("rows %d want 8 (2 instances x 2 specs x 2 modes)", len(rows))
	}
	again := Dyn(cfg)
	for k, r := range rows {
		if strings.HasSuffix(r.Mode, "-exact") && r.Quality != 1 {
			t.Fatalf("%s %s: quality %v, want 1 on an exact session", r.Instance, r.Mode, r.Quality)
		}
		if r.Quality != again[k].Quality {
			t.Fatalf("%s %s: quality %v, then %v on a second run", r.Instance, r.Mode, r.Quality, again[k].Quality)
		}
	}
}

func TestWeightedTiny(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	rows := Weighted(cfg)
	eps := map[string]float64{"weighted/auction": 0.05, "weighted/auction-coarse": 0.5, "weighted/auction-best4": 0.05}
	if len(rows) != 3*len(eps) {
		t.Fatalf("rows %d want %d (3 instances x %d modes)", len(rows), 3*len(eps), len(eps))
	}
	for _, r := range rows {
		e, ok := eps[r.Mode]
		if !ok {
			t.Fatalf("unknown mode %q", r.Mode)
		}
		if q := r.Weight / r.DualBound; !(q >= 1-e) {
			t.Fatalf("%s %s: weight/DualBound %v below 1-ε = %v", r.Instance, r.Mode, q, 1-e)
		}
	}
}
