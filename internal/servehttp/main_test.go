package servehttp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	bipartite "repro"
)

// newTestServer spins up the production mux on an httptest server.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Handler) {
	t.Helper()
	srv := bipartite.NewServerConfig(&bipartite.Options{ScalingIterations: 5, Workers: 1},
		bipartite.ServerConfig{MaxBatch: 16})
	h := NewHandler(srv, cfg)
	ts := httptest.NewServer(NewMux(h))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts, h
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, decoded
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, decoded
}

// registerRing registers an n-cycle graph (perfect matching n) and returns
// its id.
func registerRing(t *testing.T, ts *httptest.Server, n int) string {
	t.Helper()
	edges := make([][2]int, 0, 2*n)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, i}, [2]int{i, (i + 1) % n})
	}
	resp, body := postJSON(t, ts.URL+"/graph", map[string]any{
		"rows": n, "cols": n, "edges": edges,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d body %v", resp.StatusCode, body)
	}
	return body["id"].(string)
}

func TestMatchServeEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxGraphs: 8, MaxBody: 1 << 20})
	id := registerRing(t, ts, 64)

	// Single match by registered id. Karp–Sipser is exact on the ring
	// (degree ≤ 2 everywhere), so the size must be the full 64.
	resp, body := postJSON(t, ts.URL+"/match", map[string]any{
		"graph": id, "algorithm": "karpsipser", "seed": 7,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/match: status %d body %v", resp.StatusCode, body)
	}
	if int(body["size"].(float64)) != 64 {
		t.Fatalf("/match size %v, want 64 (Karp–Sipser is exact on the ring)", body["size"])
	}
	if len(body["row_mate"].([]any)) != 64 {
		t.Fatalf("row_mate length %d, want 64", len(body["row_mate"].([]any)))
	}
	// The TwoSided heuristic on the same graph: valid but not necessarily
	// perfect — assert the conjectured quality floor instead.
	resp, body = postJSON(t, ts.URL+"/match", map[string]any{
		"graph": id, "algorithm": "twosided", "seed": 7,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/match twosided: status %d body %v", resp.StatusCode, body)
	}
	if size := int(body["size"].(float64)); size < 52 || size > 64 { // 52 ≈ 0.81·64
		t.Fatalf("/match twosided size %d, want within [52, 64]", size)
	}

	// Inline graph, one-sided.
	resp, body = postJSON(t, ts.URL+"/match", map[string]any{
		"rows": 3, "cols": 3,
		"edges":     [][2]int{{0, 0}, {1, 1}, {2, 2}},
		"algorithm": "onesided", "seed": 1,
	})
	if resp.StatusCode != http.StatusOK || int(body["size"].(float64)) != 3 {
		t.Fatalf("inline /match: status %d body %v", resp.StatusCode, body)
	}

	// Batch: mixed ops, one bad entry reported in-band.
	resp, body = postJSON(t, ts.URL+"/match/batch", map[string]any{
		"requests": []map[string]any{
			{"graph": id, "algorithm": "karpsipser", "seed": 1},
			{"graph": "nope", "algorithm": "twosided"},
			{"graph": id, "algorithm": "karpsipser", "seed": 2},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/match/batch: status %d body %v", resp.StatusCode, body)
	}
	responses := body["responses"].([]any)
	if len(responses) != 3 {
		t.Fatalf("%d batch responses, want 3", len(responses))
	}
	if errMsg, _ := responses[1].(map[string]any)["error"].(string); !strings.Contains(errMsg, "unknown graph") {
		t.Fatalf("bad entry error %q, want unknown graph", errMsg)
	}
	for _, k := range []int{0, 2} {
		if int(responses[k].(map[string]any)["size"].(float64)) != 64 {
			t.Fatalf("batch response %d size %v, want 64", k, responses[k].(map[string]any)["size"])
		}
	}

	// Stats reflect the traffic.
	resp, body = getJSON(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats: status %d", resp.StatusCode)
	}
	if int(body["graphs"].(float64)) != 1 {
		t.Fatalf("stats graphs %v, want 1", body["graphs"])
	}
	if int(body["requests"].(float64)) < 5 {
		t.Fatalf("stats requests %v, want >= 5", body["requests"])
	}

	// Metrics: per-op histograms exist with the right counts.
	resp, body = getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	ops := body["ops"].(map[string]any)
	two := ops["twosided"].(map[string]any)
	if int(two["count"].(float64)) != 1 {
		t.Fatalf("twosided count %v, want 1 (single matches only)", two["count"])
	}
	if int(ops["karpsipser"].(map[string]any)["count"].(float64)) != 1 {
		t.Fatalf("karpsipser count %v, want 1", ops["karpsipser"].(map[string]any)["count"])
	}
	if _, ok := two["p99_ms"]; !ok {
		t.Fatal("twosided metrics missing p99_ms")
	}
	if int(ops["batch"].(map[string]any)["count"].(float64)) != 1 {
		t.Fatalf("batch count %v, want 1", ops["batch"].(map[string]any)["count"])
	}

	// Healthz.
	resp, body = getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("/healthz: %d %v", resp.StatusCode, body)
	}
}

func TestMatchServeOversizeBodyRejected(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxGraphs: 8, MaxBody: 256})
	edges := make([][2]int, 600) // JSON far beyond 256 bytes
	for i := range edges {
		edges[i] = [2]int{i % 20, (i + 1) % 20}
	}
	resp, body := postJSON(t, ts.URL+"/graph", map[string]any{
		"rows": 20, "cols": 20, "edges": edges,
	})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize /graph: status %d body %v, want 413", resp.StatusCode, body)
	}
	if errMsg, _ := body["error"].(string); !strings.Contains(errMsg, "exceeds") {
		t.Fatalf("oversize error %q", errMsg)
	}
	// /match is capped too.
	resp, _ = postJSON(t, ts.URL+"/match", map[string]any{
		"rows": 20, "cols": 20, "edges": edges, "algorithm": "twosided",
	})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize /match: status %d, want 413", resp.StatusCode)
	}
	// A small body still passes after rejections.
	if id := registerRing(t, ts, 8); id == "" {
		t.Fatal("small registration failed after oversize rejections")
	}
}

// TestMatchServeRegistryLRUEviction: registering past -maxgraphs evicts
// the least recently used graph instead of rejecting the registration; a
// lookup refreshes recency.
func TestMatchServeRegistryLRUEviction(t *testing.T) {
	ts, h := newTestServer(t, Config{MaxGraphs: 3, MaxBody: 1 << 20})
	id1 := registerRing(t, ts, 8)
	id2 := registerRing(t, ts, 9)
	id3 := registerRing(t, ts, 10)

	// Touch id1 so id2 becomes the LRU victim.
	if resp, _ := postJSON(t, ts.URL+"/match", map[string]any{"graph": id1, "seed": 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warming %s failed", id1)
	}
	id4 := registerRing(t, ts, 11)

	_, stats := getJSON(t, ts.URL+"/stats")
	if int(stats["graphs"].(float64)) != 3 {
		t.Fatalf("registry holds %v graphs, want 3 (the cap)", stats["graphs"])
	}
	if int(stats["evictions"].(float64)) != 1 {
		t.Fatalf("evictions %v, want 1", stats["evictions"])
	}
	// id2 evicted; id1, id3, id4 alive.
	resp, body := postJSON(t, ts.URL+"/match", map[string]any{"graph": id2, "seed": 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("evicted graph served: status %d body %v", resp.StatusCode, body)
	}
	for _, id := range []string{id1, id3, id4} {
		if resp, _ := postJSON(t, ts.URL+"/match", map[string]any{"graph": id, "seed": 1}); resp.StatusCode != http.StatusOK {
			t.Fatalf("surviving graph %s not served", id)
		}
	}

	// Explicit DELETE still works and frees a slot.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/graph/"+id3, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", dresp.StatusCode)
	}
	h.mu.Lock()
	n, lruLen := len(h.graphs), h.lru.Len()
	h.mu.Unlock()
	if n != 2 || lruLen != 2 {
		t.Fatalf("after delete: map %d lru %d, want 2/2 (map and LRU in sync)", n, lruLen)
	}
}

// TestMatchServeDeadline: a per-request timeout_ms that cannot be met
// maps to 504; an explicitly pre-expired context path is covered by the
// library tests, so here the wire-level contract is what's asserted.
func TestMatchServeDeadline(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxGraphs: 4, MaxBody: 64 << 20, Timeout: time.Minute})
	// A deadline of 1ms on a large inline graph: resolution (decode+build)
	// happens before the clock starts mattering for admission, and the
	// kernels abort at their first checkpoint past the deadline. Use a
	// graph big enough that scaling cannot finish in 1ms.
	n := 200000
	edges := make([][2]int, 0, 3*n)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, i}, [2]int{i, (i + 1) % n}, [2]int{i, (i + 7919) % n})
	}
	resp, body := postJSON(t, ts.URL+"/match", map[string]any{
		"rows": n, "cols": n, "edges": edges, "algorithm": "twosided", "timeout_ms": 1,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline-doomed /match: status %d body %v, want 504", resp.StatusCode, body)
	}
	if errMsg, _ := body["error"].(string); !strings.Contains(errMsg, "deadline") {
		t.Fatalf("deadline error %q", errMsg)
	}
}

// TestMatchServeUnknownOpAndBadJSON: malformed requests map to 400.
func TestMatchServeUnknownOpAndBadJSON(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxGraphs: 4, MaxBody: 1 << 20})
	id := registerRing(t, ts, 8)
	resp, _ := postJSON(t, ts.URL+"/match", map[string]any{"graph": id, "algorithm": "magic"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown algorithm: status %d, want 400", resp.StatusCode)
	}
	raw, err := http.Post(ts.URL+"/match", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: status %d, want 400", raw.StatusCode)
	}
}

// TestStatusOf pins the error→status mapping.
func TestStatusOf(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{bipartite.ErrOverloaded, http.StatusServiceUnavailable},
		{fmt.Errorf("wrapped: %w", bipartite.ErrOverloaded), http.StatusServiceUnavailable},
		{fmt.Errorf("boom"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := statusOf(c.err); got != c.want {
			t.Errorf("statusOf(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
