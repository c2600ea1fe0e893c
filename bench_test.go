// Microbenchmarks of the root package's own tiers, which use unexported
// API and have no counterpart in internal/bench: BenchmarkRefineHK times
// Hopcroft–Karp refinement and BenchmarkServe the ways to serve a request.
// The paper's tables and figures are cmd/matchbench's experiments
// (internal/bench), and the kernels they time have benchmarks beside
// their code in internal/core and internal/scale.
//
// Run with: go test -run '^$' -bench . -benchmem
package bipartite

import (
	"sync"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/sparse"
)

// BenchmarkRefineHK times Hopcroft–Karp on the four refine families at
// offline-exact's size (n = 40k), and on a mesh and an Erdős–Rényi graph
// whose near-perfect matchings leave no spare columns: alone from a
// width-1 TwoSided warm start scaled as offline-exact scales it,
// searching from the rows (on A) and from the columns (on the transpose,
// from the mirrored warm start), and as the cold Graph.MaximumMatching(nil)
// solve on a Graph that already holds its transpose. exact.SearchColumns
// picks the side the library refines from: the columns of rankdef and
// skewdeg, the rows of the ties.
func BenchmarkRefineHK(b *testing.B) {
	const n = 40000
	rd := gen.RankDeficient(n/2, n*3/20, 6, 903)
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"rankdef", gen.RankDeficient(n, n*3/10, 6, 901)},
		{"longthin", gen.LongThinPath(2 * n)},
		{"skewdeg", gen.SkewedDegree(n, n*4/5, 6, 3, 902)},
		{"bothsides", gen.DirectSum(rd, rd.Transpose())},
		{"mesh", gen.Grid3D(30, 30, 30, false)},
		{"er", gen.ERAvgDeg(n, n, 4, 904)},
	} {
		g := newGraph(tc.a)
		res, err := g.Match(Spec{Algorithm: AlgTwoSided, Seed: 1}, &Options{Workers: 1, ScalingIterations: 5})
		if err != nil {
			b.Fatal(err)
		}
		sprank := g.Sprank()
		liveRows, liveCols := g.liveCounts()
		ws := &exact.Workspace{}
		side := func(name string, a *sparse.CSR, init *exact.Matching, cols int) {
			b.Run(tc.name+"/"+name, func(b *testing.B) {
				phases := 0
				for i := 0; i < b.N; i++ {
					r := exact.NewHKRefinerLive(a, init, ws, cols)
					for r.Phase() {
						phases++
					}
					if r.Size() != sprank {
						b.Fatalf("reached %d, sprank is %d", r.Size(), sprank)
					}
				}
				b.ReportMetric(float64(phases+b.N)/float64(b.N), "phases/op")
			})
		}
		side("rows", g.a, res.Matching, liveCols)
		side("cols", g.transpose(), exact.Mirror(&exact.Matching{}, res.Matching), liveRows)
		b.Run(tc.name+"/cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.MaximumMatching(nil)
			}
		})
	}
}

// BenchmarkServe times TwoSided requests served six ways on two small
// graphs, where per-request dispatch rivals the kernels: one-shot
// Graph.Match calls, a reused Matcher, best-of-8 ensembles on a Workers: 1
// session and across the pool, one Server.MatchBatch call from one
// goroutine, and a Server fed by 8 concurrent submitters. An op is one request; an ensemble request runs 8
// candidates. Each graph's scaling is computed before the timed runs, as
// on a server that has seen the graph. The default pool tracks
// GOMAXPROCS, so -cpu 1,2,4 sweeps the pool width.
func BenchmarkServe(b *testing.B) {
	const n = 10000
	for _, inst := range []struct {
		name string
		g    *Graph
	}{
		{"er-small", RandomER(n, n, 4, 7)},
		{"pl-small", PowerLaw(n, 2, 1.8, n/20, 9)},
	} {
		g := inst.g
		if _, err := g.Match(Spec{}, nil); err != nil {
			b.Fatal(err)
		}
		twoSided := func(i int) Spec { return Spec{Algorithm: AlgTwoSided, Seed: uint64(i) + 1} }
		bestOf8 := func(opt *Options) func(*testing.B) {
			return func(b *testing.B) {
				m := g.NewMatcher(opt)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := m.Run(Spec{Algorithm: AlgTwoSided, Seed: 8*uint64(i) + 1, Ensemble: 8}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.Run(inst.name+"/oneshot", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := g.Match(twoSided(i), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(inst.name+"/matcher", func(b *testing.B) {
			m := g.NewMatcher(nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(twoSided(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(inst.name+"/ensemble8", bestOf8(&Options{Workers: 1}))
		b.Run(inst.name+"/ensemble8par", bestOf8(nil))
		b.Run(inst.name+"/batch", func(b *testing.B) {
			reqs := make([]Request, b.N)
			for i := range reqs {
				reqs[i] = Request{Graph: g, Spec: twoSided(i)}
			}
			srv := NewServerConfig(nil, ServerConfig{MaxBatch: b.N, Queue: b.N})
			defer srv.Close()
			b.ResetTimer()
			for _, resp := range srv.MatchBatch(reqs) {
				if resp.Err != nil {
					b.Fatal(resp.Err)
				}
			}
		})
		b.Run(inst.name+"/server", func(b *testing.B) {
			const submitters = 8
			srv := NewServerConfig(nil, ServerConfig{MaxBatch: 256, Queue: b.N})
			defer srv.Close()
			errs := make(chan error, submitters)
			b.ResetTimer()
			var wg sync.WaitGroup
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := s; i < b.N; i += submitters {
						if resp := srv.Match(Request{Graph: g, Spec: twoSided(i)}); resp.Err != nil {
							errs <- resp.Err
							return
						}
					}
				}(s)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
		})
	}
}
