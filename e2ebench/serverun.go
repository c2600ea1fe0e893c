package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	bip "repro"
	"repro/internal/auction"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/par"
	"repro/internal/scale"
	"repro/internal/sparse"
)

// runServe runs a serving workload. Untraced it measures set-up and the
// nominal open-loop phase; traced it also sends unloaded serial requests
// between the nominal segments, records a span per nominal request, runs
// the rate ladder and replays reads layer by layer.
func runServe(w serveWorkload, cfg runConfig, tr *Tracer) (Result, error) {
	ctx := cfg.ctx
	client := newClient(runtime.NumCPU())
	defer client.CloseIdleConnections()

	reps := setupReps
	if tr != nil {
		reps = 1
	}
	var f *fleet
	var gs []*serveGraph
	var setups []float64
	for r := 0; r < reps; r++ {
		if f != nil {
			f.stop()
		}
		client.CloseIdleConnections()
		t0 := time.Now()
		var err error
		if f, gs, err = setupServe(ctx, w, cfg, client); err != nil {
			return Result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.stop()
	if err := references(gs); err != nil {
		return Result{}, err
	}
	s := &serveRun{w: w, cfg: cfg, ctx: ctx, client: client, fleet: f, gs: gs,
		st: newStream(cfg.seed, gs, w.block), patchSeen: map[int]outcome{}}

	attempted := 0
	warm := s.counted(s.st.open(int(w.rate*warmupSeconds), w.rate), true)
	attempted += len(warm.reqs)
	for _, p := range f.procs() {
		if err := resetPeakRSS(p.pid()); err != nil {
			return Result{}, err
		}
	}

	// The nominal phase runs in segments; traced, one block of serial
	// requests follows each segment, so the loaded and the unloaded
	// latencies are both sampled across the whole run.
	segReqs := s.st.whole(int(w.rate * segmentSeconds))
	n := max(nominalRequests, int(w.rate*nominalShare*float64(cfg.seconds)))
	nominal, serial := &phase{}, &phase{}
	var cpu time.Duration
	srv0, rt0, err := f.counters(ctx, client)
	if err != nil {
		return Result{}, err
	}
	gc0 := readRuntime()
	for len(nominal.reqs) < n {
		cpu0, err := f.cpu()
		if err != nil {
			return Result{}, err
		}
		p := s.counted(s.st.open(segReqs, w.rate), true)
		cpu1, err := f.cpu()
		if err != nil {
			return Result{}, err
		}
		cpu += cpu1 - cpu0
		nominal.add(p)
		if tr != nil {
			serial.add(s.counted(s.st.serial(1), false))
		}
	}
	gc1 := readRuntime()
	srv1, rt1, err := f.counters(ctx, client)
	if err != nil {
		return Result{}, err
	}
	attempted += len(nominal.reqs) + len(serial.reqs)

	if tr == nil {
		rss, err := f.rss()
		if err != nil {
			return Result{}, err
		}
		completed := len(nominal.reqs) - nominal.failed()
		mv := metricValues{
			"setup_s":       median(setups),
			"quality_mean":  mean(nominal.quality),
			"cpu_ms_per_op": ms(cpu) / float64(max(completed, 1)),
			"rss_peak_mb":   rss,
		}
		metrics, err := mv.finish(endToEnd)
		if err != nil {
			return Result{}, err
		}
		return Result{Correct: s.failed == 0, Attempted: attempted, Failed: s.failed, Metrics: metrics}, nil
	}

	mv := metricValues{}
	s.nominalLayers(mv, nominal, tr)
	lat := latencies(nominal)
	mv["client.p50_ms"] = percentile(lat, 50)
	mv["client.tail_ms"] = percentile(lat, tailPercentile(len(lat)))
	mv["client.serial_p50_ms"] = percentile(latencies(serial), 50)
	mv["runtime.gc_cpu_frac"] = gcFrac(gc0, gc1)
	mv["server.batch_mean"] = (srv1["requests"] - srv0["requests"]) / max(srv1["batches"]-srv0["batches"], 1)
	for _, k := range []string{"shed", "degraded", "rejected"} {
		mv["server."+k] = srv1[k] - srv0[k]
	}
	for _, k := range []string{"retries", "hedges", "hedge_wins", "migrations", "fanouts"} {
		mv["cluster."+k] = rt1[k] - rt0[k]
	}
	mv["serve.max_rate_rps"] = s.ladder()
	replayed, err := s.replay(mv, nominal, tr)
	if err != nil {
		return Result{}, err
	}
	attempted += replayed
	mv.zeroLayers()
	metrics, err := mv.finish(perLayer)
	if err != nil {
		return Result{}, err
	}
	return Result{Correct: s.failed == 0, Attempted: attempted, Failed: s.failed, Metrics: metrics}, nil
}

// latencies returns a phase's latencies in milliseconds, sorted.
func latencies(p *phase) []float64 {
	lat := make([]float64, len(p.outs))
	for i := range p.outs {
		lat[i] = ms(p.outs[i].latency())
	}
	return sortedCopy(lat)
}

// nominalLayers records a span per nominal request (client time, with the
// wait for a free caller and the server's own time as children) and the
// metrics read off the loaded phase.
func (s *serveRun) nominalLayers(mv metricValues, p *phase, tr *Tracer) {
	var total, wait, patchTime time.Duration
	var lags, reqBytes, respBytes, rounds, augments, rescaled []float64
	lastRead := map[int]time.Time{}
	reads, cold := 0, 0
	for i := range p.outs {
		o, r := &p.outs[i], p.reqs[i]
		id := tr.add(i+1, 0, "client", o.due, o.done)
		tr.add(i+1, id, "loadgen.conn_wait", o.due, o.sent)
		total += o.latency()
		wait += o.connWait()
		lags = append(lags, ms(o.lag()))
		reqBytes = append(reqBytes, float64(p.reqBytes[i]))
		respBytes = append(respBytes, float64(p.respBytes[i]))
		if r.kind == kindPatch {
			patchTime += o.latency()
			augments = append(augments, float64(p.patches[i].Augments))
			rescaled = append(rescaled, b2f(p.patches[i].Rescaled))
			continue
		}
		if wm := p.wire[i]; wm.Ms > 0 {
			tr.add(i+1, id, "server", o.sent, o.sent.Add(time.Duration(wm.Ms*float64(time.Millisecond))))
		}
		if r.kind == kindAuction {
			rounds = append(rounds, float64(p.wire[i].Rounds))
		}
		// A read is cold when a batch on its graph completed since the
		// previous read of that graph was sent: the server then scales the
		// new graph version before matching.
		reads++
		if s.gs[r.graph].role == roleWrite {
			prev := lastRead[r.graph]
			for pid, po := range s.patchSeen {
				if s.st.patches[pid].graph == r.graph && po.done.After(prev) && !po.done.After(o.sent) {
					cold++
					break
				}
			}
			lastRead[r.graph] = o.sent
		}
	}
	pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(total) }
	mv["loadgen.conn_wait_pct"] = pct(wait)
	mv["dyn.patch_pct"] = pct(patchTime)
	mv["loadgen.lag_p99_ms"] = percentile(sortedCopy(lags), 99)
	if lag := mv["loadgen.lag_p99_ms"]; lag > maxValidLagMs {
		fmt.Fprintf(os.Stderr, "e2ebench: run invalid: the generator sent its requests up to %.2f ms late (p99), over the %g ms it may\n", lag, maxValidLagMs)
	}
	mv["servehttp.req_bytes"] = mean(reqBytes)
	mv["servehttp.resp_bytes"] = mean(respBytes)
	mv["auction.rounds"] = mean(rounds)
	mv["dyn.augments_mean"] = mean(augments)
	mv["dyn.rescaled_frac"] = mean(rescaled)
	mv["session.cold_frac"] = float64(cold) / float64(max(reads, 1))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// replayGraph is one graph as the replay's in-process layers see it: its
// final edge set, and the library objects built on it.
type replayGraph struct {
	a, at *sparse.CSR
	g     *bip.Graph
	sc    *scale.Result
	m     *bip.Matcher
	id    string // on the direct replica
}

// finalCSR returns a write graph's edge set after every batch the server
// accepted; other graphs are returned unchanged.
func (s *serveRun) finalCSR(gi int) (*sparse.CSR, error) {
	g := s.gs[gi]
	if g.role != roleWrite {
		return g.a, nil
	}
	var coords []sparse.Coord
	applied := func(p int) bool {
		o, ok := s.patchSeen[p]
		return ok && o.err == nil && o.status == http.StatusOK
	}
	for i := 0; i < g.a.RowsN; i++ {
		for _, j := range g.a.Row(i) {
			if g.hasEdge(int32(i), j, applied) {
				coords = append(coords, sparse.Coord{I: int32(i), J: j})
			}
		}
	}
	for k, p := range g.insBy {
		if applied(p) {
			coords = append(coords, sparse.Coord{I: int32(k >> 32), J: int32(uint32(k))})
		}
	}
	a, err := sparse.FromCOO(g.a.RowsN, g.a.ColsN, coords, false)
	if err != nil {
		return nil, err
	}
	return sortedCSR(a), nil
}

// replay sends the first replayRequests reads of the nominal phase again,
// unloaded and one at a time, at each layer in turn: the kernels rebuilt
// from their public functions, Matcher.Run, Server.Match, direct HTTP and,
// when routed, the router. A layer's self time is its time minus the
// layer below it on the same requests.
func (s *serveRun) replay(mv metricValues, nominal *phase, tr *Tracer) (int, error) {
	var reqs []request
	var loadedWire, loadedLat time.Duration
	for i, r := range nominal.reqs {
		if r.kind != kindPatch && len(reqs) < replayRequests {
			reqs = append(reqs, r)
			loadedWire += time.Duration(nominal.wire[i].Ms * float64(time.Millisecond))
			loadedLat += nominal.outs[i].latency()
		}
	}
	// Every batch sent so far has completed, so the servers hold the write
	// graphs' final edge sets too.
	rgs := make([]*replayGraph, len(s.gs))
	var iters, bytes []float64
	direct := s.fleet.servers[0]
	for gi, g := range s.gs {
		a, err := s.finalCSR(gi)
		if err != nil {
			return 0, err
		}
		rg := &replayGraph{a: a, at: a.Transpose(), id: g.id}
		b := a.Clone()
		if rg.g, err = bip.NewWeightedGraph(b.RowsN, b.ColsN, b.Ptr, b.Idx, b.Val); err != nil {
			return 0, err
		}
		if g.role != roleWeighted {
			tr.timed(0, 0, "scale.SinkhornKnopp", func() {
				rg.sc, err = scale.SinkhornKnopp(a, rg.at, scale.Options{MaxIters: scalingIters, Policy: par.Dynamic})
			})
			if err != nil {
				return 0, err
			}
			iters = append(iters, float64(rg.sc.Iters))
			bytes = append(bytes, float64((2*rg.sc.Iters+1)*(12*a.NNZ()+8*(a.RowsN+a.ColsN))))
		}
		if s.w.routed {
			rg.id = fmt.Sprintf("replay-%d", gi)
			sg := &serveGraph{a: a}
			if err := register(s.ctx, s.client, direct.url, sg, rg.id); err != nil {
				return 0, err
			}
		}
		rg.m = rg.g.NewMatcher(&bip.Options{ScalingIterations: scalingIters})
		if _, err := rg.m.Run(specOf(request{kind: warmKind(g), seed: 1})); err != nil {
			return 0, err
		}
		rgs[gi] = rg
	}
	mv["scale.ms"] = summarize(tr.snapshot()).perCall("scale.SinkhornKnopp")
	mv["scale.iters"] = mean(iters)
	mv["scale.bytes_computed"] = mean(bytes)

	check := func(r request, rowMate []int32, size int, weight float64) {
		rg := rgs[r.graph]
		var err error
		if s.gs[r.graph].role == roleWeighted {
			err = checkAuction(rg.a, rowMate, size, weight, s.gs[r.graph].optimum, bip.DefaultEpsilon)
		} else {
			err = checkRowMate(rg.a.RowsN, rg.a.ColsN, rowMate, size, func(i, j int32) bool { return edgePos(rg.a, i, j) >= 0 })
		}
		if err != nil {
			s.failed++
			fmt.Fprintf(os.Stderr, "e2ebench: replay of graph %d: %v\n", r.graph, err)
		}
	}

	// Layer 0: the kernels, rebuilt from their public functions.
	kernelSizes := make([]int, len(reqs))
	for k, r := range reqs {
		size, err := s.kernels(tr, 1_000_000+k, rgs[r.graph], r)
		if err != nil {
			s.failed++
			fmt.Fprintf(os.Stderr, "e2ebench: replay %d kernels: %v\n", k, err)
		}
		kernelSizes[k] = size
	}
	// Layer 1: Matcher.Run on a warm session per graph.
	var t1 time.Duration
	var allocs []float64
	for k, r := range reqs {
		a0, start := readRuntime().allocs, time.Now()
		res, err := rgs[r.graph].m.Run(specOf(r))
		d := time.Since(start)
		allocs = append(allocs, float64(readRuntime().allocs-a0))
		if err != nil {
			return 0, err
		}
		t1 += d
		tr.add(2_000_000+k, 0, "session.Run", start, start.Add(d))
		check(r, res.Matching.RowMate, res.Matching.Size, res.MatchedWeight)
		if r.kind != kindAuction && res.Matching.Size != kernelSizes[k] {
			s.failed++
			fmt.Fprintf(os.Stderr, "e2ebench: replay %d: kernels matched %d, Matcher.Run %d\n", k, kernelSizes[k], res.Matching.Size)
		}
	}
	// Layer 2: Server.Match on an in-process server with matchserve's
	// default configuration.
	srv := bip.NewServerConfig(&bip.Options{ScalingIterations: scalingIters}, bip.ServerConfig{
		MaxBatch: 256, Watchdog: bip.WatchdogConfig{CPULimit: bip.AutoCPULimit(0.85), Interval: time.Second}})
	defer srv.Close()
	for gi, rg := range rgs {
		srv.Match(bip.Request{Graph: rg.g, Spec: specOf(request{kind: warmKind(s.gs[gi]), seed: 1})})
	}
	var t2 time.Duration
	for k, r := range reqs {
		start := time.Now()
		resp := srv.Match(bip.Request{Graph: rgs[r.graph].g, Spec: specOf(r)})
		d := time.Since(start)
		if resp.Err != nil {
			return 0, resp.Err
		}
		t2 += d
		tr.add(3_000_000+k, 0, "server.Match", start, start.Add(d))
		check(r, resp.Matching.RowMate, resp.Matching.Size, resp.MatchedWeight)
	}
	// Layers 3 and 4: direct HTTP to a replica, then through the router.
	httpLayer := func(base string, ids func(request) string, trace int, name string) (time.Duration, error) {
		calls := make([]call, len(reqs))
		for k, r := range reqs {
			body, _ := json.Marshal(readBody(ids(r), r.kind, r.seed)) // plain values always encode
			calls[k] = call{method: http.MethodPost, path: "/match", body: body}
		}
		for gi := range rgs { // warm every graph on this path
			r := request{kind: warmKind(s.gs[gi]), graph: gi, seed: 1}
			if err := postJSON(s.ctx, s.client, base, http.MethodPost, "/match", readBody(ids(r), r.kind, 1), nil); err != nil {
				return 0, err
			}
		}
		outs := closedLoop(s.ctx, s.client, base, calls)
		var total time.Duration
		for k := range outs {
			o := &outs[k]
			if o.err != nil || o.status != http.StatusOK {
				return 0, fmt.Errorf("%s replay: status %d: %v", name, o.status, o.err)
			}
			var wm wireMatch
			if err := json.Unmarshal(o.body, &wm); err != nil {
				return 0, err
			}
			check(reqs[k], wm.RowMate, wm.Size, wm.MatchedWeight)
			total += o.latency()
			tr.add(trace+k, 0, name, o.sent, o.done)
		}
		return total, nil
	}
	t3, err := httpLayer(direct.url, func(r request) string { return rgs[r.graph].id }, 4_000_000, "http.direct")
	if err != nil {
		return 0, err
	}
	top, t4 := t3, t3
	if s.w.routed {
		if t4, err = httpLayer(s.fleet.front, func(r request) string { return s.gs[r.graph].id }, 5_000_000, "http.routed"); err != nil {
			return 0, err
		}
		top = t4
	}

	spans := tr.snapshot()
	st := summarize(spans)
	t0 := st.total("replay.kernels")
	// Kernel shares are of the rebuilt reads: the rebuilt kernels allocate
	// what a warm session reuses, so they run slower than inside
	// Matcher.Run, and subtracting them from it would give no self time.
	// The session share is therefore Matcher.Run's whole time, kernels
	// included; trace.overhead_frac reports how far apart the two are.
	kernelShare := func(names ...string) float64 { return 100 * float64(st.total(names...)) / float64(t0) }
	share := func(d time.Duration) float64 { return 100 * float64(d) / float64(top) }
	mv["core.sample_ms"] = 2 * st.perCall("core.SampleRowChoices", "core.SampleColChoices")
	mv["core.choice_ms"] = st.perCall("core.NewChoiceGraph")
	mv["ks.karpsipser_ms"] = st.perCall("core.KarpSipserMT")
	mv["ks.decode_ms"] = st.perCall("core.DecodeMatch")
	mv["core.pct"] = kernelShare("core.SampleRowChoices", "core.SampleColChoices", "core.NewChoiceGraph")
	mv["ks.pct"] = kernelShare("core.KarpSipserMT", "core.DecodeMatch")
	mv["auction.pct"] = kernelShare("auction.Run")
	mv["session.pct"] = share(t1)
	mv["server.pct"] = share(t2 - t1)
	mv["servehttp.pct"] = share(t3 - t2)
	mv["cluster.pct"] = share(t4 - t3)
	mv["server.queue_pct"] = 100 * float64(loadedWire-t2) / float64(loadedLat)
	mv["session.run_ms"] = ms(t1) / float64(len(reqs))
	mv["session.allocs_per_run"] = mean(allocs)
	mv["trace.overhead_frac"] = float64(t0)/float64(t1) - 1
	mv["trace.coverage_min"] = coverageMin(spans, "replay.kernels")
	layers := 4
	if s.w.routed {
		layers = 5
	}
	return layers * len(reqs), nil
}

// specOf is the library Spec of a read.
func specOf(r request) bip.Spec {
	spec := bip.Spec{Seed: r.seed}
	switch r.kind {
	case kindBestOf:
		spec.Ensemble = bestOf
	case kindAuction:
		spec.Algorithm = bip.AlgAuction
	}
	return spec
}

// kernels rebuilds one read from the kernels' public functions under a
// replay span and returns the matched size (the best candidate's, for an
// ensemble): TwoSided sampling, choice graph, Karp–Sipser and decoding on
// the graph's cached scaling, or one auction run. The answers are checked
// after the span closes.
func (s *serveRun) kernels(tr *Tracer, trace int, rg *replayGraph, r request) (int, error) {
	a, at := rg.a, rg.at
	parent := tr.open(trace, 0, "replay.kernels")
	if r.kind == kindAuction {
		var res auction.Result
		var err error
		tr.timed(trace, parent, "auction.Run", func() {
			pool := par.Default()
			res, err = auction.Run(a, at, auction.Options{Epsilon: bip.DefaultEpsilon, Workers: pool.Width(), Pool: pool}, r.seed, nil)
		})
		tr.close(parent)
		if err != nil {
			return 0, err
		}
		return res.Matching.Size, checkAuction(a, res.Matching.RowMate, res.Matching.Size, res.Weight, s.gs[r.graph].optimum, bip.DefaultEpsilon)
	}
	candidates := 1
	if r.kind == kindBestOf {
		candidates = bestOf
	}
	mts := make([]*exact.Matching, candidates)
	for c := range mts {
		opt := core.Options{Policy: par.Dynamic, Chunk: par.DefaultChunk, KSPolicy: par.Guided,
			Seed: r.seed + uint64(c), RowTotals: rg.sc.RSum, ColTotals: rg.sc.CSum}
		var rc, cc, match []int32
		var cg *core.ChoiceGraph
		tr.timed(trace, parent, "core.SampleRowChoices", func() { rc = core.SampleRowChoices(a, rg.sc.DR, rg.sc.DC, opt) })
		tr.timed(trace, parent, "core.SampleColChoices", func() { cc = core.SampleColChoices(at, rg.sc.DR, rg.sc.DC, opt) })
		tr.timed(trace, parent, "core.NewChoiceGraph", func() { cg = core.NewChoiceGraph(a.RowsN, a.ColsN, rc, cc) })
		tr.timed(trace, parent, "core.KarpSipserMT", func() { match = core.KarpSipserMT(cg, opt) })
		tr.timed(trace, parent, "core.DecodeMatch", func() { mts[c] = core.DecodeMatch(cg, match) })
	}
	tr.close(parent)
	best := 0
	for _, mt := range mts {
		if err := checkMatching(a, mt.RowMate, mt.ColMate, mt.Size); err != nil {
			return 0, err
		}
		best = max(best, mt.Size)
	}
	return best, nil
}
