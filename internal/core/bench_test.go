package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/scale"
	"repro/internal/sparse"
)

// benchInstance is a named benchmark matrix.
type benchInstance struct {
	name string
	a    *sparse.CSR
}

// width1Instances span the degree mixes the sampling and Karp–Sipser
// loops see: Erdős–Rényi and power-law rows of small, mixed degree, a
// road network of degree ≈ 2, and e2ebench's heavytail, whose rows are
// mostly longer than the fixed-trip-count groups.
func width1Instances() []benchInstance {
	return []benchInstance{
		{"er20k", gen.ERAvgDeg(20000, 20000, 4, 1)},
		{"powerlaw20k", gen.PowerLaw(20000, 2, 2.0, 1000, 1)},
		{"roadlike200k", gen.RoadLike(200000, 2.1, 1)},
		{"heavytail", gen.PowerLaw(20000, 15, 1.35, 10000, 1)},
	}
}

// exactInstances are e2ebench's offline-exact graphs at their benchmark
// sizes (graph seed 1).
func exactInstances() []benchInstance {
	return []benchInstance{
		{"rankdef", gen.RankDeficient(40000, 12000, 6, 1)},
		{"longthin", gen.LongThinPath(80000)},
		{"skewdeg", gen.SkewedDegree(40000, 32000, 6, 3, 1)},
	}
}

// offlineInstances are e2ebench's five offline graphs at their benchmark
// sizes (graph seed 1): heavytail and roadnet21 of offline-heuristic,
// rankdef, longthin and skewdeg of offline-exact.
func offlineInstances() []benchInstance {
	return append([]benchInstance{
		{"heavytail", gen.PowerLaw(20000, 15, 1.35, 10000, 1)},
		{"roadnet21", gen.RoadLike(200000, 2.1, 1)},
	}, exactInstances()...)
}

// offlineChoiceGraph is the TwoSided choice graph of a under five
// scaling iterations, seed 1.
func offlineChoiceGraph(b *testing.B, a *sparse.CSR) *ChoiceGraph {
	at := a.Transpose()
	sc, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: 5, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{Workers: 1, Policy: par.Dynamic, Seed: 1}
	return NewChoiceGraph(a.RowsN, a.ColsN,
		SampleRowChoices(a, sc.DR, sc.DC, opt), SampleColChoices(at, sc.DR, sc.DC, opt))
}

// width1Session returns a width-1 session on a with a warm five-iteration
// scaling and its exported totals installed, the state a batch slot
// serves reads from.
func width1Session(b *testing.B, a *sparse.CSR) *Session {
	at := a.Transpose()
	sc, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: 5, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	s := NewSession(a, at, Options{Workers: 1, Policy: par.Dynamic, KSPolicy: par.Guided})
	s.SetScaling(sc.DR, sc.DC, sc.RSum, sc.CSum)
	return s
}

// BenchmarkSessionTwoSidedWidth1 times one width-1 Session.TwoSided call
// on a warm scaling — the call a batch slot makes for every serving read
// — on the width-1 instances and on offline-exact's three graphs.
func BenchmarkSessionTwoSidedWidth1(b *testing.B) {
	for _, inst := range append(width1Instances(), exactInstances()...) {
		b.Run(inst.name, func(b *testing.B) {
			s := width1Session(b, inst.a)
			s.TwoSided(1)
			seed := uint64(2)
			for b.Loop() {
				s.TwoSided(seed)
				seed++
			}
		})
	}
}

// BenchmarkSessionOneSidedWidth1 times one width-1 Session.OneSided call
// on a warm scaling on the width-1 instances.
func BenchmarkSessionOneSidedWidth1(b *testing.B) {
	for _, inst := range width1Instances() {
		b.Run(inst.name, func(b *testing.B) {
			s := width1Session(b, inst.a)
			s.OneSided(1)
			seed := uint64(2)
			for b.Loop() {
				s.OneSided(seed)
				seed++
			}
		})
	}
}

// BenchmarkKarpSipserMTWidths times KarpSipserMT on the TwoSided choice
// graph (five scaling iterations, seed 1) of each of e2ebench's five
// offline instances at their benchmark sizes: heavytail and roadnet21 of
// offline-heuristic, rankdef, longthin and skewdeg of offline-exact. At
// Workers 1 the kernel takes its branch-free serial form, at 2 the atomic
// one, on a pool of width 2; run it with -cpu 2 so the atomic kernel gets
// two cores.
func BenchmarkKarpSipserMTWidths(b *testing.B) {
	pool := par.NewPool(2)
	defer pool.Close()
	for _, inst := range offlineInstances() {
		g := offlineChoiceGraph(b, inst.a)
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", inst.name, w), func(b *testing.B) {
				kopt := Options{Workers: w, KSPolicy: par.Guided, Pool: pool}
				for b.Loop() {
					KarpSipserMT(g, kopt)
				}
			})
		}
	}
}

// BenchmarkKarpSipserInPlace times ksInPlace alone, the Karp–Sipser
// kernel Session.TwoSided runs, on the same five choice graphs as
// BenchmarkKarpSipserMTWidths, writing into buffers allocated once, as a
// warm session's are.
func BenchmarkKarpSipserInPlace(b *testing.B) {
	for _, inst := range offlineInstances() {
		g := offlineChoiceGraph(b, inst.a)
		mate, cnt := make([]int32, g.N+g.M), make([]int32, g.N+g.M)
		b.Run(inst.name, func(b *testing.B) {
			for b.Loop() {
				ksInPlace(g.Choice, mate, cnt, g.N, par.DefaultChunk, nil)
			}
		})
	}
}
