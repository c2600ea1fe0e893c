package scale

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/sparse"
)

// BenchmarkSinkhornKnopp times one 5-iteration fused scaling at widths 1
// and 2. The instances are a road network of degree ≈ 2 (the
// offline-heuristic workload's roadnet21 shape), Erdős–Rényi rows of
// small mixed degree, e2ebench's heavytail, whose rows are mostly long,
// and the offline-exact workload's rankdef.
func BenchmarkSinkhornKnopp(b *testing.B) {
	insts := []struct {
		name string
		a    *sparse.CSR
	}{
		{"roadlike200k", gen.RoadLike(200000, 2.1, 1)},
		{"er20k", gen.ERAvgDeg(20000, 20000, 4, 1)},
		{"heavytail", gen.PowerLaw(20000, 15, 1.35, 10000, 1)},
		{"rankdef", gen.RankDeficient(40000, 12000, 6, 1)},
	}
	pool := par.NewPool(2)
	defer pool.Close()
	for _, inst := range insts {
		a := inst.a
		at := a.Transpose()
		for _, w := range []int{1, 2} {
			opt := Options{MaxIters: 5, Workers: w, Policy: par.Dynamic, Pool: pool}
			b.Run(inst.name+"/w"+string(rune('0'+w)), func(b *testing.B) {
				for b.Loop() {
					if _, err := SinkhornKnopp(a, at, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
