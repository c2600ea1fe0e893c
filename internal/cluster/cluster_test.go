// Cluster integration suite: real servehttp replicas behind the routing
// SDK and the router front end, all in-process via httptest. The fleet
// helper boots N replicas with the same engine options the bit-identity
// tests use for their single-process reference, so wire answers and
// library answers are comparable field by field.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	bipartite "repro"
	"repro/internal/cluster"
	"repro/internal/servehttp"
	"repro/internal/wire"
)

// engineOpts are the replica engine options; reference runs in the
// bit-identity tests must use the same values.
func engineOpts() *bipartite.Options {
	return &bipartite.Options{ScalingIterations: 5, Workers: 1}
}

type fleet struct {
	t        *testing.T
	urls     []string
	servers  []*httptest.Server
	handlers []*servehttp.Handler
	client   *cluster.Client
	router   *httptest.Server

	wg sync.WaitGroup // background kills in flight
}

func newFleet(t *testing.T, n int, opt cluster.Options) *fleet {
	t.Helper()
	f := &fleet{t: t}
	for i := 0; i < n; i++ {
		srv := bipartite.NewServerConfig(engineOpts(), bipartite.ServerConfig{MaxBatch: 64})
		h := servehttp.NewHandler(srv, servehttp.Config{MaxGraphs: 256, MaxBody: 64 << 20})
		ts := httptest.NewServer(servehttp.NewMux(h))
		f.servers = append(f.servers, ts)
		f.handlers = append(f.handlers, h)
		f.urls = append(f.urls, ts.URL)
	}
	f.client = cluster.New(f.urls, opt)
	f.router = httptest.NewServer(cluster.NewRouterMux(cluster.NewRouter(f.client, 8<<20)))
	t.Cleanup(func() {
		f.router.Close()
		for i, ts := range f.servers {
			if ts != nil {
				ts.Close()
				f.handlers[i].Close()
			}
		}
		f.wg.Wait()
	})
	return f
}

// kill makes replica i unreachable the way a crash is: the listener
// stops accepting and every open connection is severed mid-flight. The
// blocking teardown (Close waits for in-flight handlers) runs in the
// background so the test can keep driving traffic.
func (f *fleet) kill(i int) {
	ts := f.servers[i]
	if ts == nil {
		return
	}
	f.servers[i] = nil
	ts.CloseClientConnections()
	f.wg.Add(1)
	go func(h *servehttp.Handler) {
		defer f.wg.Done()
		ts.Close()
		h.Close()
	}(f.handlers[i])
}

func (f *fleet) indexOf(url string) int {
	for i, u := range f.urls {
		if u == url {
			return i
		}
	}
	f.t.Fatalf("unknown replica url %q", url)
	return -1
}

// replicaGraphs asks replica i's own /healthz how many graphs it holds.
func (f *fleet) replicaGraphs(i int) int {
	f.t.Helper()
	resp, err := http.Get(f.urls[i] + "/healthz")
	if err != nil {
		f.t.Fatalf("healthz %s: %v", f.urls[i], err)
	}
	defer resp.Body.Close()
	var hz struct {
		Graphs int `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		f.t.Fatalf("healthz decode: %v", err)
	}
	return hz.Graphs
}

// edgesOf exports a graph's pattern as the wire edge list, in CSR order
// (so a weighted registration can align weights with Graph.Weights()).
func edgesOf(g *bipartite.Graph) [][2]int {
	rows, _, ptr, idx := g.CSR()
	out := make([][2]int, 0, ptr[rows])
	for i := 0; i < rows; i++ {
		for p := ptr[i]; p < ptr[i+1]; p++ {
			out = append(out, [2]int{i, int(idx[p])})
		}
	}
	return out
}

// do sends one JSON request and returns the status and raw body.
func do(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, raw
}

func decodeInto(t *testing.T, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
}

// registerVia registers a graph through the router and returns its id.
func registerVia(t *testing.T, routerURL string, gs wire.GraphSpec) string {
	t.Helper()
	code, raw := do(t, http.MethodPost, routerURL+"/graph", gs)
	if code != http.StatusOK {
		t.Fatalf("register: status %d: %s", code, raw)
	}
	var reply struct {
		ID string `json:"id"`
	}
	decodeInto(t, raw, &reply)
	if reply.ID == "" {
		t.Fatalf("register: empty id: %s", raw)
	}
	return reply.ID
}

// TestClusterRoutingAndRegistry drives the full wire surface through the
// router: sharded registration, routed matches with provenance, export,
// PATCH forwarding, delete, and the error statuses.
func TestClusterRoutingAndRegistry(t *testing.T) {
	f := newFleet(t, 3, cluster.Options{HedgeDelay: -1})
	g := bipartite.RandomER(40, 40, 3, 7)
	edges := edgesOf(g)

	const n = 24
	ids := make([]string, n)
	for i := range ids {
		ids[i] = registerVia(t, f.router.URL, wire.GraphSpec{Rows: 40, Cols: 40, Edges: edges})
	}

	// Bounded-load sharding spreads 24 keys over 3 replicas: every
	// replica owns some, none owns more than the capacity bound.
	byOwner := make(map[string]int)
	for _, id := range ids {
		owner := f.client.OwnerOf(id)
		if owner == "" {
			t.Fatalf("graph %s has no owner", id)
		}
		byOwner[owner]++
	}
	if len(byOwner) != 3 {
		t.Fatalf("keys landed on %d of 3 replicas: %v", len(byOwner), byOwner)
	}
	for u, c := range byOwner {
		if c > 10 { // ceil(1.25*24/3)
			t.Fatalf("replica %s owns %d keys, above the bounded-load cap", u, c)
		}
	}

	// Routed match: answered by the graph's ring owner, with provenance.
	for _, id := range ids[:6] {
		code, raw := do(t, http.MethodPost, f.router.URL+"/match",
			wire.MatchRequest{Graph: id, Algorithm: "twosided", Seed: 7})
		if code != http.StatusOK {
			t.Fatalf("match %s: status %d: %s", id, code, raw)
		}
		var mr wire.MatchResponse
		decodeInto(t, raw, &mr)
		if mr.Size <= 0 || mr.Rows != 40 || mr.Cols != 40 || mr.WinnerSeed != 7 {
			t.Fatalf("match %s: size=%d rows=%d cols=%d winner=%d", id, mr.Size, mr.Rows, mr.Cols, mr.WinnerSeed)
		}
		if mr.Replica != f.client.OwnerOf(id) {
			t.Fatalf("match %s answered by %s, owner is %s", id, mr.Replica, f.client.OwnerOf(id))
		}
	}

	// Export via the router round-trips the registration.
	code, raw := do(t, http.MethodGet, f.router.URL+"/graph/"+ids[0], nil)
	if code != http.StatusOK {
		t.Fatalf("export: status %d: %s", code, raw)
	}
	var exp wire.GraphSpec
	decodeInto(t, raw, &exp)
	if exp.Rows != 40 || exp.Cols != 40 || len(exp.Edges) != len(edges) {
		t.Fatalf("export: %dx%d with %d edges, want 40x40 with %d", exp.Rows, exp.Cols, len(exp.Edges), len(edges))
	}

	// PATCH forwards to the owner and the export reflects the mutation.
	before := len(exp.Edges)
	code, raw = do(t, http.MethodPatch, f.router.URL+"/graph/"+ids[0],
		map[string]any{"insert": [][2]int{{0, 39}, {39, 0}}})
	if code != http.StatusOK {
		t.Fatalf("patch: status %d: %s", code, raw)
	}
	code, raw = do(t, http.MethodGet, f.router.URL+"/graph/"+ids[0], nil)
	if code != http.StatusOK {
		t.Fatalf("export after patch: status %d", code)
	}
	decodeInto(t, raw, &exp)
	if len(exp.Edges) <= before-2 || len(exp.Edges) > before+2 {
		t.Fatalf("export after patch: %d edges, want about %d+2", len(exp.Edges), before)
	}

	// Delete drops the graph everywhere; afterwards it is unknown.
	code, raw = do(t, http.MethodDelete, f.router.URL+"/graph/"+ids[1], nil)
	if code != http.StatusOK {
		t.Fatalf("delete: status %d: %s", code, raw)
	}
	code, _ = do(t, http.MethodPost, f.router.URL+"/match",
		wire.MatchRequest{Graph: ids[1], Algorithm: "twosided"})
	if code != http.StatusNotFound {
		t.Fatalf("match after delete: status %d, want 404", code)
	}

	// Error surface: unknown graph 404, malformed body 400, healthz ok.
	if code, _ = do(t, http.MethodPost, f.router.URL+"/match",
		wire.MatchRequest{Graph: "no-such-graph"}); code != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d, want 404", code)
	}
	// The removed "op" selector reaches the replica, which refuses it: the
	// router keeps the 400 on a single match and on a best_of fan-out
	// alike, and nothing runs as the default algorithm.
	for _, body := range []map[string]any{
		{"graph": ids[2], "op": "karpsipser"},
		{"graph": ids[2], "op": "karpsipser", "best_of": 4},
	} {
		if code, raw = do(t, http.MethodPost, f.router.URL+"/match", body); code != http.StatusBadRequest ||
			!bytes.Contains(raw, []byte("algorithm")) {
			t.Fatalf(`"op" body %v: status %d body %s, want a 400 naming "algorithm"`, body, code, raw)
		}
	}
	resp, err := http.Post(f.router.URL+"/match", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatalf("bad json: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: status %d, want 400", resp.StatusCode)
	}
	code, raw = do(t, http.MethodGet, f.router.URL+"/healthz", nil)
	if code != http.StatusOK || !bytes.Contains(raw, []byte(`"healthy":3`)) {
		t.Fatalf("healthz: status %d body %s", code, raw)
	}

	// Batch through the router: mixed registered entries come back in
	// order, each answered by its owner.
	var reqs []wire.MatchRequest
	for _, id := range ids[2:8] {
		reqs = append(reqs, wire.MatchRequest{Graph: id, Algorithm: "twosided", Seed: 3})
	}
	code, raw = do(t, http.MethodPost, f.router.URL+"/match/batch", map[string]any{"requests": reqs})
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, raw)
	}
	var env struct {
		Responses []wire.MatchResponse `json:"responses"`
	}
	decodeInto(t, raw, &env)
	if len(env.Responses) != len(reqs) {
		t.Fatalf("batch: %d responses for %d requests", len(env.Responses), len(reqs))
	}
	for i, r := range env.Responses {
		if r.Error != "" || r.Size <= 0 || r.WinnerSeed != 3 {
			t.Fatalf("batch entry %d: err=%q size=%d winner=%d", i, r.Error, r.Size, r.WinnerSeed)
		}
		if r.Replica != f.client.OwnerOf(reqs[i].Graph) {
			t.Fatalf("batch entry %d answered by %s, owner is %s", i, r.Replica, f.client.OwnerOf(reqs[i].Graph))
		}
	}
}

// TestClusterRebalanceMigration kills a replica and checks the ring's
// deterministic rebalance plus the lazy migration path: every graph keeps
// a live owner, the dead replica's graphs move (and only about that
// many), and matching each graph afterwards succeeds by migrating it —
// from the retained registration, since its sole holder died.
func TestClusterRebalanceMigration(t *testing.T) {
	f := newFleet(t, 3, cluster.Options{HedgeDelay: -1, RetryBase: 2 * time.Millisecond})
	ctx := context.Background()
	g := bipartite.RandomER(60, 60, 3, 5)
	edges := edgesOf(g)

	const n = 30
	ids := make([]string, n)
	ownersBefore := make(map[string]string, n)
	for i := range ids {
		id, err := f.client.RegisterGraph(ctx, wire.GraphSpec{Rows: 60, Cols: 60, Edges: edges})
		if err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
		ids[i] = id
		ownersBefore[id] = f.client.OwnerOf(id)
	}
	base := f.client.Stats()

	// Kill the replica owning the most keys.
	victim, victimKeys := "", 0
	byOwner := make(map[string]int)
	for _, id := range ids {
		byOwner[ownersBefore[id]]++
	}
	for u, c := range byOwner {
		if c > victimKeys {
			victim, victimKeys = u, c
		}
	}
	f.kill(f.indexOf(victim))
	if healthy := f.client.Probe(ctx); healthy != 2 {
		t.Fatalf("probe after kill: %d healthy, want 2", healthy)
	}

	moved := 0
	for _, id := range ids {
		owner := f.client.OwnerOf(id)
		if owner == "" || owner == victim {
			t.Fatalf("graph %s owned by %q after kill of %s", id, owner, victim)
		}
		if owner != ownersBefore[id] {
			moved++
		}
	}
	if moved < victimKeys {
		t.Fatalf("only %d keys moved, the victim owned %d", moved, victimKeys)
	}
	if slack := n / 5; moved > victimKeys+slack {
		t.Fatalf("%d keys moved for a victim owning %d (slack %d): rebalance not minimal", moved, victimKeys, slack)
	}

	// Every graph still matches; the victim's graphs migrate on first use.
	for _, id := range ids {
		resp, err := f.client.Match(ctx, wire.MatchRequest{Graph: id, Algorithm: "twosided", Seed: 9})
		if err != nil {
			t.Fatalf("match %s after rebalance: %v", id, err)
		}
		if resp.Size <= 0 || resp.Replica == victim {
			t.Fatalf("match %s: size=%d replica=%s", id, resp.Size, resp.Replica)
		}
	}
	st := f.client.Stats()
	if migrated := st.Migrations - base.Migrations; migrated < int64(victimKeys) {
		t.Fatalf("%d migrations after kill, want at least the victim's %d keys", migrated, victimKeys)
	}
	if st.Healthy != 2 || st.Moved == 0 {
		t.Fatalf("stats after kill: healthy=%d moved=%d", st.Healthy, st.Moved)
	}
}

// fakeReplica is a scripted matchserve stand-in for the retry and hedge
// tests: healthy on /healthz, with a caller-chosen /match behaviour.
func fakeReplica(t *testing.T, match http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"status":"ok","level":"nominal","graphs":0}`)
	})
	mux.HandleFunc("POST /match", match)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

const cannedMatch = `{"size":1,"rows":1,"cols":1,"row_mate":[0],"winner_seed":1,"candidates_run":1,"heuristic_size":1}`

// TestClusterRetryAfterHonored scripts a replica that sheds the first
// request with a 503 + Retry-After: 1 and accepts the second: the client
// must succeed, and must not have come back before the advertised delay.
func TestClusterRetryAfterHonored(t *testing.T) {
	if testing.Short() {
		t.Skip("sleeps for the Retry-After interval")
	}
	var calls int
	var mu sync.Mutex
	ts := fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":"server overloaded"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, cannedMatch)
	})
	c := cluster.New([]string{ts.URL}, cluster.Options{
		MaxRetries: 3, RetryBase: time.Millisecond, HedgeDelay: -1,
	})
	start := time.Now()
	resp, err := c.Match(context.Background(), wire.MatchRequest{
		GraphSpec: wire.GraphSpec{Rows: 1, Cols: 1, Edges: [][2]int{{0, 0}}},
		Algorithm: "twosided",
	})
	if err != nil {
		t.Fatalf("match: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retried after %v, before the 1s Retry-After", elapsed)
	}
	if resp.Size != 1 || c.Stats().Retries < 1 {
		t.Fatalf("size=%d retries=%d", resp.Size, c.Stats().Retries)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Fatalf("replica saw %d calls, want 2", calls)
	}
}

// TestClusterHedging pairs a pathologically slow replica with a fast one:
// requests landing on the slow primary must be rescued by the hedge well
// under the slow replica's latency, and the hedge counters must show it.
func TestClusterHedging(t *testing.T) {
	const slowFor = 2 * time.Second
	slow := fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-time.After(slowFor):
		case <-r.Context().Done():
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, cannedMatch)
	})
	fast := fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, cannedMatch)
	})
	c := cluster.New([]string{slow.URL, fast.URL}, cluster.Options{
		MaxRetries: 1, RetryBase: time.Millisecond, HedgeDelay: 25 * time.Millisecond,
	})
	// Inline requests spread over the members by seed; across 24 seeds
	// both replicas serve as primary with near certainty.
	for seed := uint64(0); seed < 24; seed++ {
		start := time.Now()
		resp, err := c.Match(context.Background(), wire.MatchRequest{
			GraphSpec: wire.GraphSpec{Rows: 1, Cols: 1, Edges: [][2]int{{0, 0}}},
			Algorithm: "twosided", Seed: seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if elapsed := time.Since(start); elapsed >= slowFor {
			t.Fatalf("seed %d took %v: hedge never rescued the slow primary", seed, elapsed)
		}
		if resp.Size != 1 {
			t.Fatalf("seed %d: size %d", seed, resp.Size)
		}
	}
	st := c.Stats()
	if st.Hedges < 1 || st.HedgeWins < 1 {
		t.Fatalf("hedges=%d hedgeWins=%d: no request was hedged onto the fast replica", st.Hedges, st.HedgeWins)
	}
}
