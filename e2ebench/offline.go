package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	bip "repro"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/par"
	"repro/internal/scale"
	"repro/internal/sparse"
)

// offlineWorkload is a closed loop with one caller: an op runs every Spec
// on every instance as a one-shot Graph.Match, and the next op starts when
// the previous one returns.
type offlineWorkload struct {
	graphs func(seed uint64) []namedCSR
	specs  []bip.Spec
}

var offlineWorkloads = map[string]offlineWorkload{
	"offline-heuristic": {heuristicGraphs, []bip.Spec{
		{Algorithm: bip.AlgOneSided}, {Algorithm: bip.AlgTwoSided}}},
	"offline-exact": {exactGraphs, []bip.Spec{
		{Algorithm: bip.AlgTwoSided, Refine: bip.RefineExact}}},
}

// scalingIters is the library's default Sinkhorn–Knopp iteration count
// (what a nil *Options selects), set explicitly because a non-nil Options
// with zero iterations means uniform sampling.
const scalingIters = 5

const (
	setupReps      = 3   // set-ups per run; setup_s is their median
	warmupOps      = 5   // untimed ops before the timed phases
	minMainOps     = 100 // full-width ops a run measures at least
	qualityOps     = 100 // quality_mean covers a fixed op count, so it is a pure function of the seed
	minTracedPairs = 100 // enough untraced ops for client.tail_ms, a p90
	serialOps      = 15  // Workers: 1 ops of a traced run, for client.serial_p50_ms
)

// offlineCase is one instance: the generator's copy (rows sorted), which
// the checks use, and the library graph built from a separate copy.
type offlineCase struct {
	name   string
	a      *sparse.CSR
	g      *bip.Graph
	sprank int
}

// setupOffline generates the instances and builds the library graphs: the
// work setup_s measures.
func setupOffline(w offlineWorkload, seed uint64) ([]offlineCase, error) {
	var cases []offlineCase
	for _, nc := range w.graphs(seed) {
		a := sortedCSR(nc.a)
		b := a.Clone()
		g, err := bip.NewGraph(b.RowsN, b.ColsN, b.Ptr, b.Idx)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", nc.name, err)
		}
		cases = append(cases, offlineCase{name: nc.name, a: a, g: g})
	}
	return cases, nil
}

// opSeed is the matching seed of op k: base+k with a per-run base.
func opSeed(seed uint64, k int) uint64 { return seed<<20 + 1 + uint64(k) }

// opTiming is one op's wall-clock time and CPU time.
type opTiming struct {
	wall, cpu time.Duration
}

// runOp runs one op and returns its timing and the results in case-major,
// spec-minor order. Checks run afterwards, outside the timed region.
func runOp(cases []offlineCase, specs []bip.Spec, seed uint64, workers int) (opTiming, []*bip.MatchResult, error) {
	out := make([]*bip.MatchResult, 0, len(cases)*len(specs))
	opt := &bip.Options{ScalingIterations: scalingIters, Workers: workers}
	cpu0, t0 := selfCPU(), time.Now()
	for _, c := range cases {
		for _, spec := range specs {
			spec.Seed = seed
			res, err := c.g.Match(spec, opt)
			if err != nil {
				return opTiming{}, nil, fmt.Errorf("%s: %w", c.name, err)
			}
			out = append(out, res)
		}
	}
	return opTiming{wall: time.Since(t0), cpu: selfCPU() - cpu0}, out, nil
}

// checkOp validates every result of an op against the generator's copy and
// returns each call's quality: |M|/sprank, or for refined Specs the
// heuristic warm start's |M|/sprank (the refined size must equal sprank).
func checkOp(cases []offlineCase, specs []bip.Spec, results []*bip.MatchResult) ([]float64, error) {
	var q []float64
	k := 0
	for _, c := range cases {
		for _, spec := range specs {
			mt := results[k].Matching
			k++
			if err := checkMatching(c.a, mt.RowMate, mt.ColMate, mt.Size); err != nil {
				return nil, fmt.Errorf("%s %v: %w", c.name, spec.Algorithm, err)
			}
			size := mt.Size
			if spec.Refine != bip.RefineNone {
				if mt.Size != c.sprank {
					return nil, fmt.Errorf("%s: refined size %d, sprank %d", c.name, mt.Size, c.sprank)
				}
				size = results[k-1].HeuristicSize
			}
			q = append(q, float64(size)/float64(c.sprank))
		}
	}
	return q, nil
}

// prepareOffline runs the repeated set-up and computes the checks'
// reference structural ranks; it returns the kept instances and the
// set-up times in seconds.
func prepareOffline(w offlineWorkload, seed uint64, reps int) ([]offlineCase, []float64, error) {
	var cases []offlineCase
	var times []float64
	for r := 0; r < reps; r++ {
		cases = nil
		runtime.GC() // start each set-up from the same heap state
		t0 := time.Now()
		var err error
		if cases, err = setupOffline(w, seed); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	for i := range cases {
		cases[i].sprank = exact.Sprank(cases[i].a)
	}
	return cases, times, nil
}

// runOffline measures an offline workload untraced: warm-up, then
// full-width ops, each checked after it is measured.
func runOffline(w offlineWorkload, cfg runConfig) (Result, error) {
	cases, setups, err := prepareOffline(w, cfg.seed, setupReps)
	if err != nil {
		return Result{}, err
	}
	k := 0
	failed := 0
	// run executes and checks one op; a failed check is counted and the
	// run continues, so one wrong answer does not hide the others. Each op
	// starts from a collected heap, so its time and the peak RSS do not
	// depend on how much garbage earlier ops left behind.
	run := func() (opTiming, []float64, error) {
		runtime.GC()
		tm, res, err := runOp(cases, w.specs, opSeed(cfg.seed, k), 0)
		k++
		if err != nil {
			return tm, nil, err
		}
		q, cerr := checkOp(cases, w.specs, res)
		if cerr != nil {
			failed++
			fmt.Fprintf(os.Stderr, "e2ebench: op %d: %v\n", k-1, cerr)
		}
		return tm, q, nil
	}
	debug.FreeOSMemory()
	if err := resetPeakRSS(0); err != nil {
		return Result{}, err
	}
	for i := 0; i < warmupOps; i++ {
		if _, _, err := run(); err != nil {
			return Result{}, err
		}
	}

	var cpuMs, quality []float64
	budget := time.Duration(cfg.seconds) * time.Second
	for start := time.Now(); len(cpuMs) < minMainOps || time.Since(start) < budget; {
		tm, q, err := run()
		if err != nil {
			return Result{}, err
		}
		cpuMs = append(cpuMs, ms(tm.cpu))
		if len(cpuMs) <= qualityOps {
			quality = append(quality, q...)
		}
	}
	rss, err := peakRSS(0)
	if err != nil {
		return Result{}, err
	}
	mv := metricValues{
		"setup_s":       median(setups),
		"quality_mean":  mean(quality),
		"cpu_ms_per_op": median(cpuMs),
		"rss_peak_mb":   rss,
	}
	metrics, err := mv.finish(endToEnd)
	if err != nil {
		return Result{}, err
	}
	attempted := warmupOps + len(cpuMs)
	return Result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// tracedOffline rebuilds each op from the kernels' public functions, one
// span per call under the op span, mirroring what Graph.Match runs.
type tracedOffline struct {
	tr      *Tracer
	cases   []offlineCase
	ats     []*sparse.CSR
	specs   []bip.Spec
	engines []bip.Refinement // per case: the engine the untraced run reported
	workers int

	scaleIters, scaleBytes []float64
	phases, augmented      []float64
	graft, refinements     int
}

// op runs one traced op, checks its matchings after the op span closes,
// and returns their sizes in runOp's order.
func (x *tracedOffline) op(trace int, seed uint64) ([]int, error) {
	opID := x.tr.open(trace, 0, "op")
	var mts []*exact.Matching
	for ci, c := range x.cases {
		for _, spec := range x.specs {
			mt, err := x.call(trace, opID, ci, spec, seed)
			if err != nil {
				x.tr.close(opID)
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			mts = append(mts, mt)
		}
	}
	x.tr.close(opID)
	var sizes []int
	for k, mt := range mts {
		c := x.cases[k/len(x.specs)]
		if err := checkMatching(c.a, mt.RowMate, mt.ColMate, mt.Size); err != nil {
			return nil, fmt.Errorf("%s traced: %w", c.name, err)
		}
		sizes = append(sizes, mt.Size)
	}
	return sizes, nil
}

// call is one Graph.Match rebuilt from public parts: the default options'
// five Sinkhorn–Knopp iterations, the heuristic's kernels, then the
// refinement engine's phases.
func (x *tracedOffline) call(trace, parent, ci int, spec bip.Spec, seed uint64) (*exact.Matching, error) {
	a, at := x.cases[ci].a, x.ats[ci]
	var sc *scale.Result
	var err error
	x.tr.timed(trace, parent, "scale.SinkhornKnopp", func() {
		sc, err = scale.SinkhornKnopp(a, at, scale.Options{MaxIters: scalingIters, Workers: x.workers, Policy: par.Dynamic})
	})
	if err != nil {
		return nil, err
	}
	x.scaleIters = append(x.scaleIters, float64(sc.Iters))
	// The fused loop sweeps the matrix twice per iteration plus once to
	// settle the final error; a sweep reads each edge's column index and
	// the scaling factor it gathers, and each row pointer and sum once.
	sweeps := 2*sc.Iters + 1
	x.scaleBytes = append(x.scaleBytes, float64(sweeps*(12*a.NNZ()+8*(a.RowsN+a.ColsN))))

	opt := core.Options{Workers: x.workers, Policy: par.Dynamic, Chunk: par.DefaultChunk,
		KSPolicy: par.Guided, Seed: seed, RowTotals: sc.RSum, ColTotals: sc.CSum}
	var mt *exact.Matching
	switch spec.Algorithm {
	case bip.AlgOneSided:
		var cmatch []int32
		x.tr.timed(trace, parent, "core.OneSided", func() { cmatch, _ = core.OneSided(a, sc.DR, sc.DC, opt) })
		x.tr.timed(trace, parent, "core.CMatchToMatching", func() { mt = core.CMatchToMatching(a.RowsN, cmatch) })
	case bip.AlgTwoSided:
		var rc, cc, match []int32
		var cg *core.ChoiceGraph
		x.tr.timed(trace, parent, "core.SampleRowChoices", func() { rc = core.SampleRowChoices(a, sc.DR, sc.DC, opt) })
		x.tr.timed(trace, parent, "core.SampleColChoices", func() { cc = core.SampleColChoices(at, sc.DR, sc.DC, opt) })
		x.tr.timed(trace, parent, "core.NewChoiceGraph", func() { cg = core.NewChoiceGraph(a.RowsN, a.ColsN, rc, cc) })
		x.tr.timed(trace, parent, "core.KarpSipserMT", func() { match = core.KarpSipserMT(cg, opt) })
		x.tr.timed(trace, parent, "core.DecodeMatch", func() { mt = core.DecodeMatch(cg, match) })
	default:
		return nil, fmt.Errorf("no traced form of %v", spec.Algorithm)
	}
	if spec.Refine == bip.RefineNone {
		return mt, nil
	}
	heuristic := mt.Size
	phases := 0
	switch x.engines[ci] {
	case bip.RefineExact:
		var r *exact.HKRefiner
		x.tr.timed(trace, parent, "exact.NewHKRefiner", func() { r = exact.NewHKRefiner(a, mt) })
		for more := true; more; phases++ {
			x.tr.timed(trace, parent, "exact.HKRefiner.Phase", func() { more = r.Phase() })
		}
		mt = r.Matching()
	case bip.RefineGraft:
		var r *exact.GraftRefiner
		x.tr.timed(trace, parent, "exact.NewGraftRefiner", func() {
			r = exact.NewGraftRefiner(a, mt)
			r.SetTranspose(at)
			pool := par.Default()
			r.SetParallel(pool, pool.Workers(x.workers))
		})
		for more := true; more; phases++ {
			x.tr.timed(trace, parent, "exact.GraftRefiner.Phase", func() { more = r.Phase() })
		}
		mt = r.Matching()
		x.graft++
	default:
		return nil, fmt.Errorf("no traced form of refinement %v", x.engines[ci])
	}
	x.refinements++
	x.phases = append(x.phases, float64(phases))
	x.augmented = append(x.augmented, float64(mt.Size-heuristic))
	return mt, nil
}

// traceOffline is the traced run: untraced and traced ops alternate on the
// same seeds, so the per-call spans, the one-shot calls they rebuild and
// the tracing overhead are measured side by side; a few Workers: 1 ops
// follow.
func traceOffline(w offlineWorkload, cfg runConfig, tr *Tracer) (Result, error) {
	cases, _, err := prepareOffline(w, cfg.seed, 1)
	if err != nil {
		return Result{}, err
	}
	x := &tracedOffline{tr: tr, cases: cases, specs: w.specs}
	for _, c := range cases {
		x.ats = append(x.ats, c.a.Transpose())
	}
	// Warm up, and learn which refinement engine each instance runs.
	var res []*bip.MatchResult
	for i := 0; i < 2; i++ {
		if _, res, err = runOp(cases, w.specs, opSeed(cfg.seed, i), 0); err != nil {
			return Result{}, err
		}
	}
	for ci := range cases {
		x.engines = append(x.engines, res[ci*len(w.specs)].RefinedWith)
	}

	failed, pairs := 0, 0
	var untracedMs, tracedMs, callMs, callAllocs, gaps []float64
	rt0 := readRuntime()
	budget := time.Duration(cfg.seconds) * time.Second
	last := time.Now()
	for start := time.Now(); pairs < minTracedPairs || time.Since(start) < budget; pairs++ {
		seed := opSeed(cfg.seed, pairs)
		opStart := time.Now()
		gaps = append(gaps, ms(opStart.Sub(last)))
		var sizes []int
		opt := &bip.Options{ScalingIterations: scalingIters}
		for _, c := range cases {
			for _, spec := range w.specs {
				spec.Seed = seed
				a0, t0 := readRuntime().allocs, time.Now()
				r, err := c.g.Match(spec, opt)
				d := time.Since(t0)
				allocs := readRuntime().allocs - a0
				if err != nil {
					return Result{}, fmt.Errorf("%s: %w", c.name, err)
				}
				callMs = append(callMs, ms(d))
				callAllocs = append(callAllocs, float64(allocs))
				sizes = append(sizes, r.Matching.Size)
				if err := checkMatching(c.a, r.Matching.RowMate, r.Matching.ColMate, r.Matching.Size); err != nil {
					failed++
					fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", c.name, err)
				}
			}
		}
		untracedMs = append(untracedMs, sum(callMs[len(callMs)-len(sizes):]))
		t0 := time.Now()
		traced, err := x.op(pairs+1, seed)
		tracedMs = append(tracedMs, ms(time.Since(t0)))
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "e2ebench: traced op %d: %v\n", pairs, err)
		} else if !equalInts(traced, sizes) {
			failed++
			fmt.Fprintf(os.Stderr, "e2ebench: traced op %d sizes %v differ from Graph.Match's %v\n", pairs, traced, sizes)
		}
		runtime.GC() // as in the untraced run, each pair starts from a collected heap
		last = time.Now()
	}
	rt1 := readRuntime()
	var serialMs []float64
	for i := 0; i < serialOps; i++ {
		runtime.GC()
		tm, res, err := runOp(cases, w.specs, opSeed(cfg.seed, pairs+i), 1)
		if err != nil {
			return Result{}, err
		}
		serialMs = append(serialMs, ms(tm.wall))
		if _, err := checkOp(cases, w.specs, res); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "e2ebench: Workers: 1 op %d: %v\n", i, err)
		}
	}

	st := summarize(tr.snapshot())
	opTotal := st.total("op")
	pct := func(names ...string) float64 {
		if opTotal == 0 {
			return 0
		}
		return 100 * float64(st.total(names...)) / float64(opTotal)
	}
	kernels := []string{"scale.SinkhornKnopp", "core.SampleRowChoices", "core.SampleColChoices",
		"core.NewChoiceGraph", "core.KarpSipserMT", "core.DecodeMatch", "core.OneSided", "core.CMatchToMatching",
		"exact.NewHKRefiner", "exact.HKRefiner.Phase", "exact.NewGraftRefiner", "exact.GraftRefiner.Phase"}
	kernelPerOp := ms(st.total(kernels...)) / float64(pairs)
	mv := metricValues{
		"scale.ms":               st.perCall("scale.SinkhornKnopp"),
		"scale.iters":            mean(x.scaleIters),
		"scale.bytes_computed":   mean(x.scaleBytes),
		"core.sample_ms":         2 * st.perCall("core.SampleRowChoices", "core.SampleColChoices"),
		"core.choice_ms":         st.perCall("core.NewChoiceGraph"),
		"ks.karpsipser_ms":       st.perCall("core.KarpSipserMT"),
		"ks.decode_ms":           st.perCall("core.DecodeMatch"),
		"scale.pct":              pct("scale.SinkhornKnopp"),
		"core.pct":               pct("core.SampleRowChoices", "core.SampleColChoices", "core.NewChoiceGraph"),
		"core.onesided_pct":      pct("core.OneSided", "core.CMatchToMatching"),
		"ks.pct":                 pct("core.KarpSipserMT", "core.DecodeMatch"),
		"exact.pct":              pct("exact.NewHKRefiner", "exact.HKRefiner.Phase", "exact.NewGraftRefiner", "exact.GraftRefiner.Phase"),
		"session.pct":            100 * (mean(untracedMs) - kernelPerOp) / mean(untracedMs),
		"session.run_ms":         mean(callMs),
		"session.allocs_per_run": mean(callAllocs),
		"session.cold_frac":      1, // every one-shot call builds, scales and drops its own session
		"runtime.gc_cpu_frac":    gcFrac(rt0, rt1),
		"loadgen.lag_p99_ms":     percentile(sortedCopy(gaps[1:]), 99),
		"trace.overhead_frac":    mean(tracedMs)/mean(untracedMs) - 1,
		"client.p50_ms":          median(untracedMs),
		"client.tail_ms":         percentile(sortedCopy(untracedMs), tailPercentile(len(untracedMs))),
		"client.serial_p50_ms":   median(serialMs),
		"trace.coverage_min":     coverageMin(tr.snapshot(), "op"),
	}
	if x.refinements > 0 {
		mv["exact.phases"] = mean(x.phases)
		mv["exact.augmented"] = mean(x.augmented)
		mv["exact.graft_frac"] = float64(x.graft) / float64(x.refinements)
	}
	mv.zeroLayers()
	metrics, err := mv.finish(perLayer)
	if err != nil {
		return Result{}, err
	}
	return Result{Correct: failed == 0, Attempted: 2*pairs + serialOps, Failed: failed, Metrics: metrics}, nil
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
