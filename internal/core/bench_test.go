package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/scale"
	"repro/internal/sparse"
)

// BenchmarkSessionTwoSidedWidth1 times one width-1 Session.TwoSided call
// on a warm five-iteration scaling with its exported totals — the call a
// batch slot makes for every serving read. The instances span the degree
// mixes the sampling and Karp–Sipser loops see: Erdős–Rényi and
// power-law rows of small, mixed degree, a road network of degree ≈ 2,
// and e2ebench's heavytail, whose rows are mostly longer than the
// fixed-trip-count groups.
func BenchmarkSessionTwoSidedWidth1(b *testing.B) {
	for _, inst := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"er20k", gen.ERAvgDeg(20000, 20000, 4, 1)},
		{"powerlaw20k", gen.PowerLaw(20000, 2, 2.0, 1000, 1)},
		{"roadlike200k", gen.RoadLike(200000, 2.1, 1)},
		{"heavytail", gen.PowerLaw(20000, 15, 1.35, 10000, 1)},
	} {
		b.Run(inst.name, func(b *testing.B) {
			a := inst.a
			at := a.Transpose()
			sc, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: 5, Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			s := NewSession(a, at, Options{Workers: 1, Policy: par.Dynamic, KSPolicy: par.Guided})
			s.SetScaling(sc.DR, sc.DC, sc.RSum, sc.CSum)
			s.TwoSided(1)
			seed := uint64(2)
			for b.Loop() {
				s.TwoSided(seed)
				seed++
			}
		})
	}
}
