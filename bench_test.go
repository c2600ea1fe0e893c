// Benchmarks regenerating the kernels behind every table and figure of the
// paper's evaluation. Each benchmark is named after the table or figure it
// backs; the full reports are produced by cmd/matchbench, these benchmarks
// measure the kernels with testing.B and record quality via
// b.ReportMetric where it is the point of the table. BenchmarkRefineHK and
// BenchmarkServe time the refinement and serving tiers the paper does not
// tabulate.
//
// Run with: go test -bench=. -benchmem
package bipartite

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/cheap"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/ks"
	"repro/internal/par"
	"repro/internal/scale"
	"repro/internal/sparse"
)

func coreOpts(workers int) core.Options {
	return core.Options{Workers: workers, Policy: par.Dynamic, KSPolicy: par.Guided, Seed: 1}
}

func mustScale(b *testing.B, a, at *sparse.CSR, iters, workers int) *scale.Result {
	b.Helper()
	res, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: iters, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// --- §4.1.1 quality study ---------------------------------------------------

func BenchmarkQualityFI(b *testing.B) {
	a := gen.FullyIndecomposable(20000, 2, 1)
	at := a.Transpose()
	res := mustScale(b, a, at, 10, 0)
	for _, side := range []string{"OneSided", "TwoSided"} {
		b.Run(side, func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				o := coreOpts(0)
				o.Seed = uint64(i) + 1
				if side == "OneSided" {
					_, size = core.OneSided(a, res.DR, res.DC, o)
				} else {
					size = core.TwoSided(a, at, res.DR, res.DC, o).Matching.Size
				}
			}
			b.ReportMetric(float64(size)/float64(a.RowsN), "quality")
		})
	}
}

// --- Table 1 -----------------------------------------------------------------

func BenchmarkTable1(b *testing.B) {
	a := gen.BadKS(3200, 32)
	at := a.Transpose()
	b.Run("KarpSipserBaseline", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			mt, _ := ks.Run(a, at, uint64(i)+1)
			size = mt.Size
		}
		b.ReportMetric(float64(size)/3200.0, "quality")
	})
	res := mustScale(b, a, at, 10, 0)
	b.Run("TwoSidedScaled10", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			o := coreOpts(0)
			o.Seed = uint64(i) + 1
			size = core.TwoSided(a, at, res.DR, res.DC, o).Matching.Size
		}
		b.ReportMetric(float64(size)/3200.0, "quality")
	})
}

// --- Table 2 -----------------------------------------------------------------

func BenchmarkTable2(b *testing.B) {
	for _, d := range []int{2, 5} {
		a := gen.ERAvgDeg(50000, 50000, float64(d), uint64(d))
		at := a.Transpose()
		sp := exact.HopcroftKarp(a, nil).Size
		res := mustScale(b, a, at, 5, 0)
		b.Run(fmt.Sprintf("OneSided/d=%d", d), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				o := coreOpts(0)
				o.Seed = uint64(i) + 1
				_, size = core.OneSided(a, res.DR, res.DC, o)
			}
			b.ReportMetric(float64(size)/float64(sp), "quality")
		})
		b.Run(fmt.Sprintf("TwoSided/d=%d", d), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				o := coreOpts(0)
				o.Seed = uint64(i) + 1
				size = core.TwoSided(a, at, res.DR, res.DC, o).Matching.Size
			}
			b.ReportMetric(float64(size)/float64(sp), "quality")
		})
	}
}

// --- Table 3 -----------------------------------------------------------------

// BenchmarkTable3 measures the four sequential kernels on every catalog
// instance (tiny scale so the whole suite stays fast; cmd/matchbench -exp
// table3 runs the full-size version).
func BenchmarkTable3(b *testing.B) {
	for _, inst := range bench.Catalog("tiny") {
		a := inst.Build()
		at := a.Transpose()
		res := mustScale(b, a, at, 1, 1)
		g := func() *core.ChoiceGraph {
			r := core.SampleRowChoices(a, res.DR, res.DC, coreOpts(1))
			c := core.SampleColChoices(at, res.DR, res.DC, coreOpts(1))
			return core.NewChoiceGraph(a.RowsN, a.ColsN, r, c)
		}()
		b.Run("ScaleSK/"+inst.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustScale(b, a, at, 1, 1)
			}
		})
		b.Run("OneSided/"+inst.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := mustScale(b, a, at, 1, 1)
				core.OneSided(a, r.DR, r.DC, coreOpts(1))
			}
		})
		b.Run("KarpSipserMT/"+inst.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.KarpSipserMT(g, coreOpts(1))
			}
		})
		b.Run("TwoSided/"+inst.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := mustScale(b, a, at, 1, 1)
				core.TwoSided(a, at, r.DR, r.DC, coreOpts(1))
			}
		})
	}
}

// --- Figures 3a/3b: thread sweeps for ScaleSK and OneSidedMatch -------------

func fig34Instance() (*sparse.CSR, *sparse.CSR) {
	a := gen.ERAvgDeg(400000, 400000, 8, 3)
	return a, a.Transpose()
}

func BenchmarkFig3aScaleSK(b *testing.B) {
	a, at := fig34Instance()
	for _, w := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("threads=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustScale(b, a, at, 1, w)
			}
		})
	}
}

func BenchmarkFig3bOneSided(b *testing.B) {
	a, at := fig34Instance()
	res := mustScale(b, a, at, 1, 0)
	for _, w := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("threads=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.OneSided(a, res.DR, res.DC, coreOpts(w))
			}
		})
	}
}

// --- Figures 4a/4b: thread sweeps for KarpSipserMT and TwoSidedMatch --------

func BenchmarkFig4aKarpSipserMT(b *testing.B) {
	a, at := fig34Instance()
	res := mustScale(b, a, at, 1, 0)
	r := core.SampleRowChoices(a, res.DR, res.DC, coreOpts(0))
	c := core.SampleColChoices(at, res.DR, res.DC, coreOpts(0))
	g := core.NewChoiceGraph(a.RowsN, a.ColsN, r, c)
	for _, w := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("threads=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.KarpSipserMT(g, coreOpts(w))
			}
		})
	}
}

func BenchmarkFig4bTwoSided(b *testing.B) {
	a, at := fig34Instance()
	res := mustScale(b, a, at, 1, 0)
	for _, w := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("threads=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.TwoSided(a, at, res.DR, res.DC, coreOpts(w))
			}
		})
	}
}

// --- Figure 5: quality vs scaling iterations ---------------------------------

func BenchmarkFig5Quality(b *testing.B) {
	a := gen.ERAvgDeg(100000, 100000, 4, 7)
	at := a.Transpose()
	sp := exact.HopcroftKarp(a, nil).Size
	for _, iters := range []int{0, 1, 5} {
		res := mustScale(b, a, at, iters, 0)
		b.Run(fmt.Sprintf("TwoSided/iters=%d", iters), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				o := coreOpts(0)
				o.Seed = uint64(i) + 1
				size = core.TwoSided(a, at, res.DR, res.DC, o).Matching.Size
			}
			b.ReportMetric(float64(size)/float64(sp), "quality")
		})
	}
}

// --- Conjecture 1 -------------------------------------------------------------

func BenchmarkConjecture(b *testing.B) {
	a := gen.Full(4000)
	at := a.Transpose()
	res := mustScale(b, a, at, 1, 0)
	var size int
	for i := 0; i < b.N; i++ {
		o := coreOpts(0)
		o.Seed = uint64(i) + 1
		size = core.TwoSided(a, at, res.DR, res.DC, o).Matching.Size
	}
	b.ReportMetric(float64(size)/4000.0, "quality")
	b.ReportMetric(bench.ConjectureTarget(), "target")
}

// --- Ablations ----------------------------------------------------------------

func BenchmarkAblationScaling(b *testing.B) {
	a := gen.FullyIndecomposable(100000, 3, 1)
	at := a.Transpose()
	b.Run("SinkhornKnopp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustScale(b, a, at, 5, 0)
		}
	})
	b.Run("Ruiz", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := scale.Ruiz(a, at, scale.Options{MaxIters: 5}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationKSVariants(b *testing.B) {
	a := gen.ERAvgDeg(100000, 100000, 3, 5)
	at := a.Transpose()
	b.Run("ExactSequentialKS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ks.Run(a, at, uint64(i)+1)
		}
	})
	b.Run("ParallelApproxKS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ks.RunApprox(a, at, uint64(i)+1, 0)
		}
	})
}

func BenchmarkAblationSchedule(b *testing.B) {
	a := gen.PowerLaw(60000, 15, 1.35, 30000, 1)
	at := a.Transpose()
	res := mustScale(b, a, at, 1, 0)
	for _, pol := range []par.Policy{par.Static, par.Dynamic, par.Guided} {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.OneSided(a, res.DR, res.DC, core.Options{
					Policy: pol, KSPolicy: pol, Seed: 1})
			}
		})
	}
}

// --- Supporting algorithms (baselines used across experiments) ---------------

func BenchmarkExactSolvers(b *testing.B) {
	a := gen.ERAvgDeg(100000, 100000, 4, 9)
	b.Run("HopcroftKarp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exact.HopcroftKarp(a, nil)
		}
	})
	b.Run("MC21", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exact.MC21(a, nil)
		}
	})
	at := a.Transpose()
	res := mustScale(b, a, at, 5, 0)
	b.Run("MC21WarmStarted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := coreOpts(0)
			two := core.TwoSided(a, at, res.DR, res.DC, o)
			exact.MC21(a, two.Matching)
		}
	})
}

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

// --- Serving tiers -------------------------------------------------------------

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

// --- Extensions (paper future work / ref [31]) -------------------------------

func BenchmarkExtensionUndirected(b *testing.B) {
	g := RandomUndirected(200000, 6, 7)
	var size int
	for i := 0; i < b.N; i++ {
		res := g.Match(uint64(i)+1, &Options{ScalingIterations: 3})
		size = res.Size
	}
	b.ReportMetric(2*float64(size)/float64(g.Vertices()), "matched-frac")
}

func BenchmarkExtensionWalkupKOut(b *testing.B) {
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				a := gen.KOut(8000, k, uint64(i)+1)
				frac = float64(exact.Sprank(a)) / 8000.0
			}
			b.ReportMetric(frac, "sprank-frac")
		})
	}
}

func BenchmarkBaselineHeuristics(b *testing.B) {
	a := gen.ERAvgDeg(100000, 100000, 4, 9)
	at := a.Transpose()
	b.Run("ClassicKarpSipser", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ks.Run(a, at, uint64(i)+1)
		}
	})
	b.Run("CheapRandomEdge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cheap.RandomEdge(a, uint64(i)+1)
		}
	})
	b.Run("CheapRandomVertex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cheap.RandomVertex(a, uint64(i)+1)
		}
	})
}
