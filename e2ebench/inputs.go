package main

import (
	"repro/internal/gen"
	"repro/internal/sparse"
)

// Everything a workload feeds the programs under test is a pure function
// of the run's -seed: the graphs come from the repository's seeded
// generators and the request streams from a seeded SplitMix64, so two runs
// with the same seed send byte-identical inputs.

// deriveSeed mixes the run seed with a stream index (SplitMix64's
// finalizer), so each graph and each request stream gets an independent
// seed that is still a function of the run seed alone.
func deriveSeed(seed, stream uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + 0x632BE59BD9B4E019
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// rng is a SplitMix64 stream for request generation.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// heuristicGraphs are offline-heuristic's two instances: the small
// catalog's heavytail (extreme row-degree skew) and roadnet21 (many rows of
// degree about 2, memory bound) at a third of its sizes. A third keeps an
// op near 70 ms at width 2, so a run fits over a hundred timed ops.
func heuristicGraphs(seed uint64) []namedCSR {
	return []namedCSR{
		{"heavytail", gen.PowerLaw(20000, 15, 1.35, 10000, deriveSeed(seed, 1))},
		{"roadnet21", gen.RoadLike(200000, 2.1, deriveSeed(seed, 2))},
	}
}

// exactN sizes offline-exact's instances so one op (all three refined
// runs) takes about 70 ms at width 2; every instance stays far below the
// edge count at which RefineExact switches to the graft engine.
const exactN = 40000

// exactGraphs are the refinement tier's adversarial families: heavy rank
// deficiency, one long alternating path, and skewed degrees on both sides.
func exactGraphs(seed uint64) []namedCSR {
	return []namedCSR{
		{"rankdef", gen.RankDeficient(exactN, exactN*3/10, 6, deriveSeed(seed, 3))},
		{"longthin", gen.LongThinPath(2 * exactN)},
		{"skewdeg", gen.SkewedDegree(exactN, exactN*4/5, 6, 3, deriveSeed(seed, 4))},
	}
}

type namedCSR struct {
	name string
	a    *sparse.CSR
}
