package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	bip "repro"
	"repro/internal/exact"
)

// serveWorkload is an open loop against real server processes: requests
// are due at a fixed rate, whatever the servers' speed, and at most nproc
// connections carry them.
type serveWorkload struct {
	replicas int
	routed   bool
	graphs   func(seed uint64) ([]*serveGraph, error)
	block    blockFunc
	// rate is the nominal phase's arrival rate in requests/s.
	rate float64
	// limitMs bounds a ladder step's tail latency; ladderStart is the
	// first step's rate, calibrated so the limit is crossed after a few
	// steps on the reference host.
	limitMs     float64
	ladderStart float64
}

var serveWorkloads = map[string]serveWorkload{
	"serve-direct": {replicas: 1, graphs: directGraphs, block: directBlock,
		rate: 60, limitMs: 25, ladderStart: 85},
	"serve-routed-rw": {replicas: 3, routed: true, graphs: routedGraphs, block: routedBlock,
		rate: 80, limitMs: 50, ladderStart: 210},
}

const (
	nominalRequests = 1120 // p99 with at least ten samples beyond it, in whole blocks
	// nominalShare is the share of the run's seconds the nominal phase
	// lasts when that is longer than nominalRequests takes.
	nominalShare = 0.6
	// segmentSeconds is the length of one nominal segment.
	segmentSeconds = 1.5
	warmupSeconds  = 2
	ladderSteps    = 8
	ladderGrowth   = 1.1
	ladderStepSecs = 2
	// backlogWindow is the stretch at each end of a ladder step whose
	// caller waits are compared to detect a growing backlog.
	backlogWindow  = 500 * time.Millisecond
	replayRequests = 300
	// maxValidLagMs is the generator's own p99 sending delay above which a
	// traced run is reported invalid: its latencies then measure the
	// generator as much as the servers.
	maxValidLagMs = 1.0
)

// wireMatch is the part of a /match response the checks read.
type wireMatch struct {
	Size          int     `json:"size"`
	Rows          int     `json:"rows"`
	Cols          int     `json:"cols"`
	RowMate       []int32 `json:"row_mate"`
	MatchedWeight float64 `json:"matched_weight"`
	Epsilon       float64 `json:"epsilon"`
	Rounds        int     `json:"rounds"`
	Ms            float64 `json:"ms"`
}

// wirePatch is the part of a PATCH response the checks read.
type wirePatch struct {
	Inserted int  `json:"inserted"`
	Deleted  int  `json:"deleted"`
	Augments int  `json:"augments"`
	Rescaled bool `json:"rescaled"`
}

// serveRun is one serving run's state: the fleet, the graphs, the request
// stream and what the completed phases observed.
type serveRun struct {
	w      serveWorkload
	cfg    runConfig
	ctx    context.Context
	client *http.Client
	fleet  *fleet
	gs     []*serveGraph
	st     *stream
	// patchSeen records every completed PATCH batch's outcome, for
	// checking later reads of its graph.
	patchSeen map[int]outcome
	failed    int
}

// phase is one completed phase: its requests and what each observed.
type phase struct {
	reqs      []request
	outs      []outcome
	wire      []wireMatch // decoded reads (zero for patches)
	patches   []wirePatch // decoded patches (zero for reads)
	reqBytes  []int
	respBytes []int
	// refused counts transport errors and non-200 answers, wrong the 200
	// answers that failed their check.
	refused, wrong int
	quality        []float64 // reads of read-only graphs: |M| / sprank
}

func (p *phase) failed() int { return p.refused + p.wrong }

// add appends another phase's requests and observations to p.
func (p *phase) add(q *phase) {
	p.reqs = append(p.reqs, q.reqs...)
	p.outs = append(p.outs, q.outs...)
	p.wire = append(p.wire, q.wire...)
	p.patches = append(p.patches, q.patches...)
	p.reqBytes = append(p.reqBytes, q.reqBytes...)
	p.respBytes = append(p.respBytes, q.respBytes...)
	p.refused += q.refused
	p.wrong += q.wrong
	p.quality = append(p.quality, q.quality...)
}

// setupServe is the work setup_s measures: generate the graphs, start the
// fleet, register every graph, and send one read per graph so each
// server holds a warm scaling.
func setupServe(ctx context.Context, w serveWorkload, cfg runConfig, client *http.Client) (*fleet, []*serveGraph, error) {
	gs, err := w.graphs(cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	f, err := startFleet(ctx, cfg.bin, filepath.Join(buildDir, "logs"), w.replicas, w.routed)
	if err != nil {
		return nil, nil, err
	}
	for _, g := range gs {
		if err := register(ctx, client, f.front, g, ""); err != nil {
			f.stop()
			return nil, nil, err
		}
	}
	for _, g := range gs {
		if err := postJSON(ctx, client, f.front, http.MethodPost, "/match", readBody(g.id, warmKind(g), 1), nil); err != nil {
			f.stop()
			return nil, nil, err
		}
	}
	return f, gs, nil
}

func warmKind(g *serveGraph) reqKind {
	if g.role == roleWeighted {
		return kindAuction
	}
	return kindTwoSided
}

// register posts g's edge list (and weights) and records its id; id, when
// set, names the graph instead of letting the server choose.
func register(ctx context.Context, client *http.Client, base string, g *serveGraph, id string) error {
	edges := make([][2]int32, 0, g.a.NNZ())
	for i := 0; i < g.a.RowsN; i++ {
		for _, j := range g.a.Row(i) {
			edges = append(edges, [2]int32{int32(i), j})
		}
	}
	body := map[string]any{"rows": g.a.RowsN, "cols": g.a.ColsN, "edges": edges}
	if g.a.Val != nil {
		body["weights"] = g.a.Val
	}
	if id != "" {
		body["id"] = id
	}
	var reply struct {
		ID string `json:"id"`
	}
	if err := postJSON(ctx, client, base, http.MethodPost, "/graph", body, &reply); err != nil {
		return err
	}
	if reply.ID == "" {
		return errNoGraph
	}
	if id == "" {
		g.id = reply.ID
	}
	return nil
}

func readBody(id string, kind reqKind, seed uint64) map[string]any {
	body := map[string]any{"graph": id, "algorithm": "twosided", "seed": seed}
	switch kind {
	case kindBestOf:
		body["best_of"] = bestOf
	case kindAuction:
		body["algorithm"] = "auction"
	}
	return body
}

// encode turns a request into its HTTP call.
func (s *serveRun) encode(req request) call {
	g := s.gs[req.graph]
	if req.kind == kindPatch {
		b := s.st.patches[req.patch]
		blob, _ := json.Marshal(map[string]any{"insert": b.ins, "delete": b.del}) // int pairs always encode
		return call{at: req.at, method: http.MethodPatch, path: "/graph/" + g.id, body: blob}
	}
	blob, _ := json.Marshal(readBody(g.id, req.kind, req.seed)) // plain values always encode
	return call{at: req.at, method: http.MethodPost, path: "/match", body: blob}
}

// run sends one phase's requests (open loop when open, else one at a
// time) and checks every answer. The caller decides which of the phase's
// failures count against the run.
func (s *serveRun) run(reqs []request, open bool) *phase {
	calls := make([]call, len(reqs))
	for i, r := range reqs {
		calls[i] = s.encode(r)
	}
	var outs []outcome
	if open {
		outs = openLoop(s.ctx, s.client, s.fleet.front, calls, runtime.NumCPU())
	} else {
		outs = closedLoop(s.ctx, s.client, s.fleet.front, calls)
	}
	p := &phase{reqs: reqs, outs: outs, wire: make([]wireMatch, len(reqs)), patches: make([]wirePatch, len(reqs)),
		reqBytes: make([]int, len(reqs)), respBytes: make([]int, len(reqs))}
	// Patches first: a read is checked against the batches that completed
	// before it was sent and those in flight while it ran.
	for i, r := range reqs {
		if r.kind == kindPatch {
			s.patchSeen[r.patch] = outs[i]
		}
	}
	for i, r := range reqs {
		o := &outs[i]
		switch {
		case o.err != nil || o.status != http.StatusOK:
			if p.refused++; p.refused <= 3 {
				fmt.Fprintf(os.Stderr, "e2ebench: request %d refused: status %d %v %s\n", i, o.status, o.err, o.body)
			}
		default:
			if err := s.check(p, i); err != nil {
				p.wrong++
				fmt.Fprintf(os.Stderr, "e2ebench: request %d (kind %d, graph %d): %v\n", i, r.kind, r.graph, err)
			}
		}
		p.reqBytes[i], p.respBytes[i] = len(calls[i].body), len(o.body)
		o.body, p.wire[i].RowMate = nil, nil // checked; release them
	}
	return p
}

// counted runs a phase whose every failure counts against the run.
func (s *serveRun) counted(reqs []request, open bool) *phase {
	p := s.run(reqs, open)
	s.failed += p.failed()
	return p
}

// check validates one 200 answer of a phase.
func (s *serveRun) check(p *phase, i int) error {
	r, o := p.reqs[i], &p.outs[i]
	g := s.gs[r.graph]
	if r.kind == kindPatch {
		wp := &p.patches[i]
		if err := json.Unmarshal(o.body, wp); err != nil {
			return err
		}
		b := s.st.patches[r.patch]
		if wp.Inserted != len(b.ins) || wp.Deleted != len(b.del) {
			return fmt.Errorf("patch applied %d inserts and %d deletes of %d and %d", wp.Inserted, wp.Deleted, len(b.ins), len(b.del))
		}
		return nil
	}
	wm := &p.wire[i]
	if err := json.Unmarshal(o.body, wm); err != nil {
		return err
	}
	return s.checkRead(g, r, wm, o, p)
}

// checkRead validates a read's matching against the graph state it may
// have seen, and records its quality.
func (s *serveRun) checkRead(g *serveGraph, r request, wm *wireMatch, o *outcome, p *phase) error {
	if wm.Rows != g.a.RowsN || wm.Cols != g.a.ColsN {
		return fmt.Errorf("answer shape %dx%d for a %dx%d graph", wm.Rows, wm.Cols, g.a.RowsN, g.a.ColsN)
	}
	switch g.role {
	case roleWeighted:
		eps := wm.Epsilon
		if eps == 0 {
			eps = bip.DefaultEpsilon
		}
		return checkAuction(g.a, wm.RowMate, wm.Size, wm.MatchedWeight, g.optimum, eps)
	case roleRead:
		if err := checkRowMate(g.a.RowsN, g.a.ColsN, wm.RowMate, wm.Size,
			func(i, j int32) bool { return edgePos(g.a, i, j) >= 0 }); err != nil {
			return err
		}
		p.quality = append(p.quality, float64(wm.Size)/float64(g.sprank))
		return nil
	}
	return s.checkWriteRead(r.graph, wm, o)
}

// checkWriteRead validates a read of a write graph: it must be a valid
// matching of the edge set after the batches that completed before the
// read was sent plus some subset of the batches in flight while it ran.
func (s *serveRun) checkWriteRead(gi int, wm *wireMatch, o *outcome) error {
	g := s.gs[gi]
	applied := map[int]bool{}
	var maybe []int
	for pid, po := range s.patchSeen {
		refused := po.err == nil && po.status != http.StatusOK // answered, not applied
		if s.st.patches[pid].graph != gi || !po.sent.Before(o.done) || refused {
			continue
		}
		if po.err == nil && po.done.Before(o.sent) {
			applied[pid] = true
		} else {
			maybe = append(maybe, pid) // in flight during the read, or its fate unknown
		}
	}
	const maxMaybe = 6 // 2^6 candidate states; more in flight than callers cannot happen
	if len(maybe) > maxMaybe {
		return fmt.Errorf("%d patches in flight during one read", len(maybe))
	}
	var last error
	for mask := 0; mask < 1<<len(maybe); mask++ {
		in := func(pid int) bool {
			if applied[pid] {
				return true
			}
			for k, m := range maybe {
				if m == pid {
					return mask&(1<<k) != 0
				}
			}
			return false
		}
		last = checkRowMate(g.a.RowsN, g.a.ColsN, wm.RowMate, wm.Size,
			func(i, j int32) bool { return g.hasEdge(i, j, in) })
		if last == nil {
			return nil
		}
	}
	return fmt.Errorf("valid for no graph state the read could have seen: %w", last)
}

// references computes the checks' references once the graphs exist:
// structural ranks of read-only graphs and optimal weights of weighted
// ones (a dense Hungarian solve, so outside set-up time).
func references(gs []*serveGraph) error {
	for _, g := range gs {
		switch g.role {
		case roleRead:
			g.sprank = exact.Sprank(g.a)
		case roleWeighted:
			wg, err := bip.NewWeightedGraph(g.a.RowsN, g.a.ColsN, g.a.Ptr, g.a.Idx, g.a.Val)
			if err != nil {
				return err
			}
			if g.optimum, _, err = wg.OptimalMatchedWeight(); err != nil {
				return err
			}
		}
	}
	return nil
}

// ladder raises the offered rate ×ladderGrowth per step, starting at
// ladderStart, and returns the highest step rate that passed (0 if none).
// A step passes when every request succeeds, its tail latency stays within
// the limit, and requests due in its last half second waited no longer
// for a caller than those due in its first (no growing backlog), up to a
// fifth of the limit for noise.
func (s *serveRun) ladder() float64 {
	best := 0.0
	rate := s.w.ladderStart
	for step := 0; step < ladderSteps; step++ {
		p := s.run(s.st.open(int(rate*ladderStepSecs), rate), true)
		// Refusals end the ladder; only wrong answers fail the run.
		s.failed += p.wrong
		lat := make([]float64, len(p.outs))
		var first, last []float64
		end := p.reqs[len(p.reqs)-1].at
		for i := range p.outs {
			o := &p.outs[i]
			lat[i] = ms(o.latency())
			switch at := p.reqs[i].at; {
			case at < backlogWindow:
				first = append(first, ms(o.connWait()))
			case at > end-backlogWindow:
				last = append(last, ms(o.connWait()))
			}
		}
		sorted := sortedCopy(lat)
		tail := percentile(sorted, tailPercentile(len(sorted)))
		backlog := mean(last) > mean(first)+s.w.limitMs/5
		fmt.Fprintf(os.Stderr, "e2ebench: ladder step %d: %.0f req/s, p%g %.2f ms (limit %g), refused %d, wrong %d, caller wait %.2f -> %.2f ms\n",
			step+1, rate, tailPercentile(len(sorted)), tail, s.w.limitMs, p.refused, p.wrong, mean(first), mean(last))
		if p.failed() > 0 || tail > s.w.limitMs || backlog {
			break
		}
		best = rate
		rate *= ladderGrowth
	}
	return best
}
