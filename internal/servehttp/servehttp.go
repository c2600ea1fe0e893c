// Package servehttp is the HTTP/JSON layer of the matching service: the
// handler, routes, request validation, graph registry and metrics behind
// cmd/matchserve. It lives in an importable package (rather than in the
// command) so the cluster integration suite and cmd/matchrouter's tests
// can boot real replicas in-process with net/http/httptest — the exact
// production routing, admission control and wire encoding, minus the
// listener. See the cmd/matchserve package documentation for the wire
// contract.
package servehttp

import (
	"compress/gzip"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	bipartite "repro"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// Config is the HTTP layer's tuning, split from cmd/matchserve's flags
// so tests and the cluster suite construct handlers directly.
type Config struct {
	MaxGraphs int           // registry size before LRU eviction; 0 = unbounded
	MaxBody   int64         // request body cap in bytes; 0 = unbounded
	Timeout   time.Duration // default per-request deadline; 0 = none
}

// graphEntry is one registered graph plus its position in the LRU list.
// The dynamic session is created lazily by the first PATCH; from then on
// g always aliases the session's current snapshot, so /match requests
// observe every applied mutation batch.
type graphEntry struct {
	id   string
	g    *bipartite.Graph
	sess *bipartite.DynSession // non-nil once the graph was first patched
	elem *list.Element         // into handler.lru; front = most recently used
}

// handler owns the matching server, the LRU graph registry and the
// latency metrics.
type Handler struct {
	srv *bipartite.Server
	cfg Config
	met *metrics.Registry

	mu        sync.Mutex
	graphs    map[string]*graphEntry
	lru       *list.List // of *graphEntry
	evictions atomic.Int64
	nextID    atomic.Int64
}

func NewHandler(srv *bipartite.Server, cfg Config) *Handler {
	return &Handler{
		srv:    srv,
		cfg:    cfg,
		met:    metrics.NewRegistry(),
		graphs: make(map[string]*graphEntry),
		lru:    list.New(),
	}
}

// Close shuts the underlying batching server down: in-flight batches
// finish, later submissions fail fast. The handler is not usable after.
func (h *Handler) Close() { h.srv.Close() }

// NewMux wires the handler's routes; extracted from the command so
// httptest can serve the exact production routing.
func NewMux(h *Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /graph", h.handleGraph)
	mux.HandleFunc("GET /graph/{id}", h.handleGraphGet)
	mux.HandleFunc("DELETE /graph/{id}", h.handleGraphDelete)
	mux.HandleFunc("PATCH /graph/{id}", h.handleGraphPatch)
	mux.HandleFunc("POST /match", h.handleMatch)
	mux.HandleFunc("POST /match/batch", h.handleBatch)
	mux.HandleFunc("GET /healthz", h.handleHealthz)
	mux.HandleFunc("GET /stats", h.handleStats)
	mux.HandleFunc("GET /metrics", h.handleMetrics)
	return mux
}

// handleHealthz is the replica's health probe. Beyond liveness it reports
// the watchdog's shedding level and the registry size, which is what the
// cluster router's membership probes feed on: a replica answering
// "critical" stays a member (its graphs are still owned) but the router
// backs off fan-out work it would only shed.
func (h *Handler) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h.mu.Lock()
	graphs := len(h.graphs)
	h.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"level":  h.srv.Health().Level.String(),
		"graphs": graphs,
	})
}

// decodeBody JSON-decodes a size-capped request body into v, translating
// the body-cap overflow into its dedicated status.
func (h *Handler) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := r.Body
	if h.cfg.MaxBody > 0 {
		body = http.MaxBytesReader(w, r.Body, h.cfg.MaxBody)
	}
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// maxWireDim caps a wire graph's rows/cols. Graph construction allocates
// O(rows) regardless of the edge count, so without a cap a tiny body like
// {"rows":1000000000,"cols":1,"edges":[]} forces a multi-gigabyte
// allocation past every body-size limit (found by the PATCH/match
// decoder fuzz targets).
const maxWireDim = 4 << 20

// buildGraph validates an inline wire graph and builds it.
func buildGraph(s *wire.GraphSpec) (*bipartite.Graph, error) {
	if s.Rows <= 0 || s.Cols <= 0 {
		return nil, fmt.Errorf("rows and cols must be positive, got %dx%d", s.Rows, s.Cols)
	}
	if s.Rows > maxWireDim || s.Cols > maxWireDim {
		return nil, fmt.Errorf("rows and cols are capped at %d, got %dx%d", maxWireDim, s.Rows, s.Cols)
	}
	if len(s.Weights) > 0 {
		return bipartite.FromWeightedEdges(s.Rows, s.Cols, s.Edges, s.Weights)
	}
	return bipartite.FromEdges(s.Rows, s.Cols, s.Edges)
}

// specOf translates the wire fields into a validated bipartite.Spec. The
// removed "op" selector is refused rather than ignored: ignoring it would
// silently run the default algorithm instead of the one the client named.
func specOf(mr *wire.MatchRequest) (bipartite.Spec, error) {
	if mr.LegacyOp != nil {
		return bipartite.Spec{}, fmt.Errorf(`"op" was removed: name the algorithm with "algorithm" (got "op":%q)`, *mr.LegacyOp)
	}
	alg, err := bipartite.ParseAlgorithm(mr.Algorithm)
	if err != nil {
		return bipartite.Spec{}, err
	}
	ref, err := bipartite.ParseRefinement(mr.Refine)
	if err != nil {
		return bipartite.Spec{}, err
	}
	spec := bipartite.Spec{
		Algorithm:  alg,
		Seed:       mr.Seed,
		Ensemble:   mr.BestOf,
		Refine:     ref,
		Target:     mr.Target,
		SeedOffset: mr.SeedOffset,
		SeedCount:  mr.SeedCount,
		Epsilon:    mr.Epsilon,
	}
	if err := spec.Validate(); err != nil {
		return bipartite.Spec{}, err
	}
	return spec, nil
}

// lookup returns the registered graph and marks it most recently used.
func (h *Handler) lookup(id string) *bipartite.Graph {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.graphs[id]
	if e == nil {
		return nil
	}
	h.lru.MoveToFront(e.elem)
	return e.g
}

// resolve turns a wire request into a library request carrying ctx (plus
// the request's own deadline, if any), the parsed priority and the
// submitting client's identity. It returns the context's cancel (never
// nil) which the caller must invoke once the response is written.
func (h *Handler) resolve(ctx context.Context, mr *wire.MatchRequest, client string) (bipartite.Request, context.CancelFunc, error) {
	nop := context.CancelFunc(func() {})
	spec, err := specOf(mr)
	if err != nil {
		return bipartite.Request{}, nop, err
	}
	prio, err := bipartite.ParsePriority(mr.Priority)
	if err != nil {
		return bipartite.Request{}, nop, err
	}
	var g *bipartite.Graph
	if mr.Graph != "" {
		if g = h.lookup(mr.Graph); g == nil {
			return bipartite.Request{}, nop, fmt.Errorf("unknown graph %q", mr.Graph)
		}
	} else {
		if g, err = buildGraph(&mr.GraphSpec); err != nil {
			return bipartite.Request{}, nop, err
		}
	}
	cancel := nop
	timeout := h.cfg.Timeout
	if mr.TimeoutMs > 0 {
		timeout = time.Duration(mr.TimeoutMs) * time.Millisecond
	}
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	return bipartite.Request{Graph: g, Spec: spec, Ctx: ctx, Priority: prio, Client: client}, cancel, nil
}

// clientOf identifies the submitter for per-client rate limiting: the
// X-Client header when the caller names itself, the connection's remote
// host otherwise — so an anonymous flood from one address still lands in
// one bucket instead of bypassing the limiter.
func clientOf(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// maxWireID caps a client-chosen graph id's length: ids are ring keys and
// registry map keys, so an unbounded one is an amplification vector.
const maxWireID = 128

func (h *Handler) handleGraph(w http.ResponseWriter, r *http.Request) {
	// body.ID, when set, registers (or replaces — the upsert is what lets a
	// cluster router migrate and replicate graphs under stable ids) the
	// graph under the client's name instead of a server-generated one.
	var body wire.GraphSpec
	if !h.decodeBody(w, r, &body) {
		return
	}
	g, err := buildGraph(&body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id := body.ID
	if id == "" {
		id = "g" + strconv.FormatInt(h.nextID.Add(1), 10)
	} else if len(id) > maxWireID {
		writeError(w, http.StatusBadRequest, fmt.Errorf("graph id exceeds %d bytes", maxWireID))
		return
	}
	h.mu.Lock()
	if old, ok := h.graphs[id]; ok {
		// Upsert: the replacement drops the old snapshot, its dynamic
		// session and its service-time estimates — exactly like an
		// eviction, minus the counter.
		h.lru.Remove(old.elem)
		delete(h.graphs, id)
		h.srv.DropGraph(old.g)
	}
	// LRU eviction instead of rejection: a full registry stays writable,
	// and cold graphs pay the cost (their next use re-registers). An
	// evicted graph takes its scaling with it; DropGraph drops the
	// engine's service-time estimates for it.
	for h.cfg.MaxGraphs > 0 && len(h.graphs) >= h.cfg.MaxGraphs {
		victim := h.lru.Back().Value.(*graphEntry)
		h.lru.Remove(victim.elem)
		delete(h.graphs, victim.id)
		h.evictions.Add(1)
		h.srv.DropGraph(victim.g)
	}
	e := &graphEntry{id: id, g: g}
	e.elem = h.lru.PushFront(e)
	h.graphs[id] = e
	h.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"id": id, "rows": g.Rows(), "cols": g.Cols(), "edges": g.Edges(),
	})
}

// handleGraphGet exports a registered graph in the POST /graph wire shape
// (edge list plus weights when the graph is weighted), so a router can
// migrate a graph to its new ring owner after a rebalance — or replicate
// it for ensemble fan-out — without keeping its own copy of every
// registered graph.
func (h *Handler) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	h.mu.Lock()
	e, ok := h.graphs[id]
	var g *bipartite.Graph
	if ok {
		h.lru.MoveToFront(e.elem)
		g = e.g
	}
	h.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown graph %q", id))
		return
	}
	rows, cols, ptr, idx := g.CSR()
	edges := make([][2]int, 0, len(idx))
	for i := 0; i < rows; i++ {
		for p := ptr[i]; p < ptr[i+1]; p++ {
			edges = append(edges, [2]int{i, int(idx[p])})
		}
	}
	reply := map[string]any{"id": id, "rows": rows, "cols": cols, "edges": edges}
	if weights := g.Weights(); weights != nil {
		reply["weights"] = weights
	}
	writeJSON(w, http.StatusOK, reply)
}

func (h *Handler) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	h.mu.Lock()
	e, ok := h.graphs[id]
	if ok {
		h.lru.Remove(e.elem)
		delete(h.graphs, id)
	}
	h.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown graph %q", id))
		return
	}
	h.srv.DropGraph(e.g) // drop its service-time estimates along with the graph
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// patchRequest is one PATCH /graph/{id} body: a batch of edge mutations.
// Deletes apply before inserts; the batch is atomic (an out-of-range
// endpoint rejects the whole batch with nothing applied). Weights, when
// present, carry one weight per inserted edge and require the target
// graph to be weighted (its maintained matching is then the auction's);
// inserting into a weighted graph without weights defaults each new edge
// to weight 1.
type patchRequest struct {
	Insert  [][2]int  `json:"insert"`
	Delete  [][2]int  `json:"delete"`
	Weights []float64 `json:"weights,omitempty"`
}

func (h *Handler) handleGraphPatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var pr patchRequest
	if !h.decodeBody(w, r, &pr) {
		return
	}
	h.mu.Lock()
	e, ok := h.graphs[id]
	if !ok {
		h.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown graph %q", id))
		return
	}
	h.lru.MoveToFront(e.elem)
	if e.sess == nil {
		// First mutation: open a dynamic session on the registered graph —
		// an exact cardinality session for pattern graphs (the maintained
		// matching tracks the structural rank), an auction session for
		// weighted ones (the maintained matching tracks the matched weight
		// within the creation-time (1−ε) slack). From here on the entry
		// serves the session's snapshots.
		spec := bipartite.Spec{Refine: bipartite.RefineExact}
		if e.g.Weighted() {
			spec = bipartite.Spec{Algorithm: bipartite.AlgAuction}
		}
		sess, err := e.g.NewDynSession(spec, nil)
		if err != nil {
			h.mu.Unlock()
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		e.sess = sess
	}
	var res *bipartite.DynResult
	var err error
	if len(pr.Weights) > 0 {
		if len(pr.Weights) != len(pr.Insert) {
			h.mu.Unlock()
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("%d weights for %d inserted edges", len(pr.Weights), len(pr.Insert)))
			return
		}
		ins := make([]bipartite.WeightedEdge, len(pr.Insert))
		for k, ed := range pr.Insert {
			ins[k] = bipartite.WeightedEdge{Row: ed[0], Col: ed[1], Weight: pr.Weights[k]}
		}
		res, err = e.sess.ApplyWeighted(ins, pr.Delete)
	} else {
		res, err = e.sess.Apply(pr.Insert, pr.Delete)
	}
	if err != nil {
		h.mu.Unlock()
		code := http.StatusBadRequest
		if !errors.Is(err, bipartite.ErrInvalidMutation) {
			code = http.StatusInternalServerError
		}
		writeError(w, code, err)
		return
	}
	old := e.g
	cur := e.sess.Snapshot()
	auction := e.sess.Auction()
	swapped := cur != old
	if swapped {
		e.g = cur
	}
	h.mu.Unlock()
	if swapped {
		// The registry now serves the mutated snapshot; the stale one's
		// scaling dies with it (a neutral batch keeps the snapshot
		// pointer, so warm scalings survive no-op patches).
		h.srv.DropGraph(old)
	}
	reply := map[string]any{
		"id": id, "rows": cur.Rows(), "cols": cur.Cols(), "edges": cur.Edges(),
		"inserted": res.Inserted, "deleted": res.Deleted, "freed": res.Freed,
		"augments": res.Augments, "maintained_size": res.MaintainedSize,
	}
	if auction {
		reply["maintained_weight"] = res.MaintainedWeight
	}
	writeJSON(w, http.StatusOK, reply)
}

func (h *Handler) handleMatch(w http.ResponseWriter, r *http.Request) {
	var mr wire.MatchRequest
	if !h.decodeBody(w, r, &mr) {
		return
	}
	req, cancel, err := h.resolve(r.Context(), &mr, clientOf(r))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	start := time.Now()
	resp := h.srv.Match(req)
	elapsed := time.Since(start)
	if resp.Err != nil {
		// Failures don't feed the per-op histograms: microsecond 503
		// rejections under overload would drag p50/p99 toward zero
		// exactly when an operator reads /metrics to diagnose the
		// incident. They get their own error series instead.
		h.met.Histogram("errors").Observe(elapsed)
		writeErrorRetry(w, statusOf(resp.Err), resp.Err, retryAfterOf(resp.Err))
		return
	}
	h.met.Histogram(req.Spec.Algorithm.String()).Observe(elapsed)
	out := toWire(resp, elapsed)
	writeMatchStream(w, http.StatusOK, &out)
}

// gzipBody reads decompressed bytes while Close releases both the gzip
// stream and the underlying request body.
type gzipBody struct {
	zr   *gzip.Reader
	body io.ReadCloser
}

func (b gzipBody) Read(p []byte) (int, error) { return b.zr.Read(p) }
func (b gzipBody) Close() error {
	err := b.zr.Close()
	if berr := b.body.Close(); err == nil {
		err = berr
	}
	return err
}

// gzipContentEncoding reports whether the request body is gzip-encoded
// ("gzip" or its historic alias "x-gzip"; substring matching would also
// claim encodings that merely mention gzip).
func gzipContentEncoding(r *http.Request) bool {
	switch strings.ToLower(strings.TrimSpace(r.Header.Get("Content-Encoding"))) {
	case "gzip", "x-gzip":
		return true
	}
	return false
}

// acceptsGzip parses the Accept-Encoding header: gzip is acceptable only
// if listed (or wildcarded) with a non-zero q-value — "gzip;q=0" is an
// RFC 9110 refusal, not an opt-in, so substring matching would hand those
// clients a body they declared they cannot decode.
func acceptsGzip(header string) bool {
	for _, part := range strings.Split(header, ",") {
		fields := strings.Split(part, ";")
		coding := strings.ToLower(strings.TrimSpace(fields[0]))
		if coding != "gzip" && coding != "x-gzip" && coding != "*" {
			continue
		}
		q := 1.0
		for _, p := range fields[1:] {
			p = strings.TrimSpace(p)
			if v, ok := strings.CutPrefix(p, "q="); ok {
				if parsed, err := strconv.ParseFloat(v, 64); err == nil {
					q = parsed
				}
			}
		}
		if q > 0 {
			return true
		}
	}
	return false
}

func (h *Handler) handleBatch(w http.ResponseWriter, r *http.Request) {
	// Optional gzip request envelope. The gzip layer sits *under* the
	// decodeBody size cap, so -maxbody bounds the decompressed bytes — a
	// tiny compressed bomb cannot smuggle an oversized batch past the cap.
	if gzipContentEncoding(r) {
		zr, err := gzip.NewReader(r.Body)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("gzip request body: %w", err))
			return
		}
		r.Body = gzipBody{zr: zr, body: r.Body}
	}
	var body wire.BatchRequest
	if !h.decodeBody(w, r, &body) {
		return
	}
	// Per-request resolution errors are reported in-band so one bad entry
	// does not fail the batch — and only the entries that resolved are
	// submitted, so malformed ones never occupy bounded admission-queue
	// slots or engine dispatch.
	out := make([]wire.MatchResponse, len(body.Requests))
	reqs := make([]bipartite.Request, 0, len(body.Requests))
	slots := make([]int, 0, len(body.Requests))
	client := clientOf(r)
	for i := range body.Requests {
		req, cancel, err := h.resolve(r.Context(), &body.Requests[i], client)
		defer cancel()
		if err != nil {
			out[i] = toWire(bipartite.Response{Err: err}, 0)
			continue
		}
		reqs = append(reqs, req)
		slots = append(slots, i)
	}
	start := time.Now()
	resps := h.srv.MatchBatch(reqs)
	elapsed := time.Since(start)
	h.met.Histogram("batch").Observe(elapsed)
	for k, resp := range resps {
		out[slots[k]] = toWire(resp, 0)
	}
	writeBatchStream(w, r, http.StatusOK, out, float64(elapsed.Microseconds())/1000)
}

// statsMap assembles the counter set shared by /stats and /metrics. The
// self-protection counters ride along: shed / would_miss / rate_limited
// count typed admission rejections, degraded counts requests answered
// with a downgraded Spec.
func (h *Handler) statsMap() map[string]any {
	st := h.srv.Stats()
	h.mu.Lock()
	graphs := len(h.graphs)
	h.mu.Unlock()
	return map[string]any{
		"requests": st.Requests, "batches": st.Batches, "rejected": st.Rejected,
		"shed": st.Shed, "would_miss": st.WouldMiss, "rate_limited": st.RateLimited,
		"degraded": st.Degraded,
		"graphs":   graphs, "evictions": h.evictions.Load(),
	}
}

// watchdogMap is the /metrics JSON view of the watchdog's state: the
// shedding level plus the raw CPU/RSS samples and the utilization score
// the level thresholds apply to. An unprotected server reports nominal
// with zero samples.
func (h *Handler) watchdogMap() map[string]any {
	hs := h.srv.Health()
	return map[string]any{
		"level":       hs.Level.String(),
		"cpu":         hs.CPU,
		"rss_bytes":   hs.RSSBytes,
		"utilization": hs.Utilization,
	}
}

func (h *Handler) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, h.statsMap())
}

// opMetrics is the wire shape of one op's latency summary.
type opMetrics struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsProm(r) {
		h.writePromMetrics(w)
		return
	}
	ops := make(map[string]opMetrics)
	for name, s := range h.met.Snapshots() {
		ops[name] = opMetrics{
			Count:  s.Count,
			MeanMs: ms(s.Mean),
			P50Ms:  ms(s.P50),
			P90Ms:  ms(s.P90),
			P99Ms:  ms(s.P99),
			MaxMs:  ms(s.Max),
		}
	}
	body := h.statsMap()
	body["ops"] = ops
	body["watchdog"] = h.watchdogMap()
	writeJSON(w, http.StatusOK, body)
}

// wantsProm content-negotiates the /metrics format: an explicit
// ?format=prom wins, otherwise a text/plain or OpenMetrics Accept header
// (what Prometheus scrapers send) selects the text exposition format and
// everything else keeps the JSON body.
func wantsProm(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

// writePromMetrics renders the counters and per-op latency histograms in
// the Prometheus text exposition format (version 0.0.4), reusing the same
// internal/metrics snapshots the JSON body reports: cumulative buckets in
// seconds with the log2 upper bounds, plus _sum and _count per series.
func (h *Handler) writePromMetrics(w http.ResponseWriter) {
	st := h.srv.Stats()
	h.mu.Lock()
	graphs := len(h.graphs)
	h.mu.Unlock()

	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("matchserve_requests_total", "Requests served by the batch engine.", st.Requests)
	counter("matchserve_batches_total", "Pool-wide regions the requests were served in.", st.Batches)
	counter("matchserve_rejected_total", "Submissions refused with 503 at admission.", st.Rejected)
	counter("matchserve_shed_total", "Submissions refused by watchdog priority shedding.", st.Shed)
	counter("matchserve_would_miss_total", "Submissions refused because their deadline could not be met.", st.WouldMiss)
	counter("matchserve_rate_limited_total", "Submissions refused by the per-client rate limit.", st.RateLimited)
	counter("matchserve_degraded_total", "Requests served with a downgraded Spec.", st.Degraded)
	counter("matchserve_graph_evictions_total", "Graphs evicted from the LRU registry.", h.evictions.Load())
	fmt.Fprintf(&b, "# HELP matchserve_graphs Registered graphs.\n# TYPE matchserve_graphs gauge\nmatchserve_graphs %d\n", graphs)

	hs := h.srv.Health()
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	gauge("matchserve_watchdog_level", "Shedding level (0 nominal, 1 degraded, 2 shedding, 3 critical).", float64(hs.Level))
	gauge("matchserve_watchdog_cpu", "Latest CPU sample as a fraction of total capacity.", hs.CPU)
	gauge("matchserve_watchdog_rss_bytes", "Latest resident set size in bytes.", float64(hs.RSSBytes))
	gauge("matchserve_watchdog_utilization", "Shedding score: max(cpu/limit, rss/limit).", hs.Utilization)

	snaps := h.met.Snapshots()
	names := make([]string, 0, len(snaps))
	for name := range snaps {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic scrape order
	const hist = "matchserve_request_duration_seconds"
	fmt.Fprintf(&b, "# HELP %s Latency of served requests by operation.\n# TYPE %s histogram\n", hist, hist)
	for _, name := range names {
		s := snaps[name]
		cum := uint64(0)
		for k := 0; k < metrics.NumBuckets; k++ {
			cum += s.Buckets[k]
			le := "+Inf"
			if k < metrics.NumBuckets-1 {
				le = strconv.FormatFloat(metrics.BucketUpperBound(k).Seconds(), 'g', -1, 64)
			}
			fmt.Fprintf(&b, "%s_bucket{op=%q,le=%q} %d\n", hist, name, le, cum)
		}
		fmt.Fprintf(&b, "%s_sum{op=%q} %g\n", hist, name, s.Sum.Seconds())
		fmt.Fprintf(&b, "%s_count{op=%q} %d\n", hist, name, s.Count)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if _, err := io.WriteString(w, b.String()); err != nil {
		log.Printf("matchserve: write: %v", err)
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// statusOf maps a serving error to its HTTP status: back-pressure and
// watchdog shedding are 503 (retry later — the *server* is the problem),
// a doomed deadline or an exceeded per-client rate is 429 (the *request*
// is the problem: resubmit later or with a looser deadline), an expired
// deadline 504, a client-abandoned request 499 (the nginx convention),
// anything else 500. retryAfterOf supplies the Retry-After the 429/503
// responses carry.
func statusOf(err error) int {
	switch {
	case errors.Is(err, bipartite.ErrOverloaded), errors.Is(err, bipartite.ErrShed):
		return http.StatusServiceUnavailable
	case errors.Is(err, bipartite.ErrWouldMiss), errors.Is(err, bipartite.ErrRateLimited):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// retryAfterOf extracts the admission layer's Retry-After hint: how long
// until the shedding level can have decayed, the backlog drained, or one
// rate-limit token accrued. Zero means the error carries no hint (no
// Retry-After header is written).
func retryAfterOf(err error) time.Duration {
	var shed *bipartite.ShedError
	if errors.As(err, &shed) {
		return shed.RetryAfter
	}
	var miss *bipartite.WouldMissError
	if errors.As(err, &miss) {
		return miss.RetryAfter
	}
	var rate *bipartite.RateLimitError
	if errors.As(err, &rate) {
		return rate.RetryAfter
	}
	return 0
}

// writeErrorRetry is writeError plus the Retry-After header (in whole
// seconds, rounded up so "250ms" does not truncate to an immediate
// retry).
func writeErrorRetry(w http.ResponseWriter, code int, err error, retry time.Duration) {
	if retry > 0 {
		secs := int64((retry + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeError(w, code, err)
}

func toWire(resp bipartite.Response, d time.Duration) wire.MatchResponse {
	if resp.Err != nil {
		return wire.MatchResponse{Error: resp.Err.Error()}
	}
	out := wire.MatchResponse{
		Size:          resp.Matching.Size,
		Rows:          len(resp.Matching.RowMate),
		Cols:          len(resp.Matching.ColMate),
		RowMate:       resp.Matching.RowMate,
		WinnerSeed:    resp.WinnerSeed,
		CandidatesRun: resp.Candidates,
		HeuristicSize: resp.HeuristicSize,
		Refined:       resp.Refined,
		MatchedWeight: resp.MatchedWeight,
		Epsilon:       resp.Epsilon,
		Rounds:        resp.Rounds,
		Degraded:      resp.Degraded,
		Ms:            float64(d.Microseconds()) / 1000,
	}
	if resp.Refined {
		out.RefinedWith = resp.RefinedWith.String()
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("matchserve: write: %v", err)
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
