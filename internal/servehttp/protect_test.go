package servehttp

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	bipartite "repro"
	"repro/internal/par"
)

// postJSONHeaders is postJSON with extra request headers (X-Client).
func postJSONHeaders(t *testing.T, url string, body any, headers map[string]string) (*http.Response, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
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

// Fault injection at the HTTP layer: a synthetic CPU reader reports
// whatever load the test dials in (busyMilli thousandths of total
// capacity), the watchdog samples it on a fast real interval, and the
// test drives the service through overload and recovery — asserting the
// wire contract (503/429 + Retry-After, the "degraded" response field)
// rather than the library types the root suite covers.

// waitFor polls cond and fails the test after a generous timeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// newProtectedServer builds the production mux over a Server whose
// watchdog believes the synthetic CPU signal: cumulative CPU time is
// modeled as busyMilli/1000 of capacity over the whole process lifetime,
// so raising busyMilli spikes the sampled fraction within one interval
// and zeroing it reads as calm.
func newProtectedServer(t *testing.T, busyMilli *atomic.Int64, cfg bipartite.ServerConfig) (*httptest.Server, *bipartite.Server) {
	t.Helper()
	start := time.Now()
	cores := runtime.NumCPU()
	cfg.Watchdog.ReadCPU = func() (time.Duration, error) {
		elapsed := time.Since(start)
		return time.Duration(float64(elapsed) * float64(cores) * float64(busyMilli.Load()) / 1000), nil
	}
	srv := bipartite.NewServerConfig(&bipartite.Options{ScalingIterations: 2, Workers: 1}, cfg)
	h := NewHandler(srv, Config{MaxGraphs: 8, MaxBody: 1 << 20})
	ts := httptest.NewServer(NewMux(h))
	return ts, srv
}

// TestProtectHTTPShedAndRecover is the service-level acceptance gate:
// under injected overload matchserve sheds with 503 + Retry-After while
// high-priority requests are served degraded (with the provenance field
// on the wire), and once the load clears it serves everything at full
// quality again — without leaking goroutines.
func TestProtectHTTPShedAndRecover(t *testing.T) {
	// The process-wide default pool, which the engine dispatches to,
	// parks its workers for the life of the process: start it before the
	// baseline so that only the server's own goroutines are counted.
	par.Default()
	baseline := runtime.NumGoroutine()
	var busy atomic.Int64
	ts, srv := newProtectedServer(t, &busy, bipartite.ServerConfig{
		MaxBatch: 16,
		Watchdog: bipartite.WatchdogConfig{
			CPULimit: 0.5,
			Interval: 2 * time.Millisecond,
			Settle:   2,
		},
	})
	id := registerRing(t, ts, 64)

	// Nominal: served, no degradation marker on the wire.
	resp, body := postJSON(t, ts.URL+"/match", map[string]any{
		"graph": id, "algorithm": "twosided", "refine": "exact", "seed": 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nominal /match: status %d body %v", resp.StatusCode, body)
	}
	if _, present := body["degraded"]; present {
		t.Fatalf("nominal response carries degraded=%v", body["degraded"])
	}

	// Inject overload: 1.8× capacity against a 0.5 limit. The watchdog
	// samples it within a few 2ms intervals.
	busy.Store(1800)
	waitFor(t, "watchdog to reach critical", func() bool {
		return srv.Health().Level == bipartite.ShedCritical
	})

	// Normal priority: shed with 503 and a Retry-After hint.
	resp, body = postJSON(t, ts.URL+"/match", map[string]any{
		"graph": id, "algorithm": "twosided", "seed": 2,
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed /match: status %d body %v, want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("shed 503 Retry-After %q, want a positive hint", ra)
	}
	if body["error"] == "" {
		t.Fatal("shed 503 carries no error body")
	}

	// High priority: served, but degraded — and the wire says how.
	resp, body = postJSON(t, ts.URL+"/match", map[string]any{
		"graph": id, "algorithm": "twosided", "refine": "exact", "seed": 3, "priority": "high",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("high-priority /match under overload: status %d body %v", resp.StatusCode, body)
	}
	if body["degraded"] != "refine:exact->none" {
		t.Fatalf("degraded field %v, want refine:exact->none", body["degraded"])
	}
	if size := int(body["size"].(float64)); size < 52 {
		t.Fatalf("degraded matching size %d, below the heuristic quality floor", size)
	}

	// Recovery: calm readings decay the ladder back to nominal.
	busy.Store(0)
	waitFor(t, "watchdog to recover", func() bool {
		return srv.Health().Level == bipartite.ShedNominal
	})
	resp, body = postJSON(t, ts.URL+"/match", map[string]any{
		"graph": id, "algorithm": "twosided", "refine": "exact", "seed": 4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery /match: status %d body %v", resp.StatusCode, body)
	}
	if _, present := body["degraded"]; present {
		t.Fatalf("post-recovery response still degraded: %v", body["degraded"])
	}

	// The observability surfaces report the incident.
	resp, body = getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	wd, ok := body["watchdog"].(map[string]any)
	if !ok {
		t.Fatalf("/metrics has no watchdog section: %v", body)
	}
	if wd["level"] != "nominal" {
		t.Fatalf("watchdog level %v, want nominal after recovery", wd["level"])
	}
	if int(body["shed"].(float64)) < 1 || int(body["degraded"].(float64)) < 1 {
		t.Fatalf("metrics shed=%v degraded=%v, want both >= 1", body["shed"], body["degraded"])
	}
	promResp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	promBytes, err := io.ReadAll(promResp.Body)
	promResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	prom := string(promBytes)
	for _, series := range []string{
		"matchserve_shed_total", "matchserve_degraded_total",
		"matchserve_would_miss_total", "matchserve_rate_limited_total",
		"matchserve_watchdog_level", "matchserve_watchdog_utilization",
	} {
		if !strings.Contains(prom, series) {
			t.Errorf("prom exposition missing %s", series)
		}
	}

	ts.Close()
	srv.Close()
	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline
	})
}

// TestProtectHTTPRateLimit429: the per-client bucket answers the greedy
// client 429 + Retry-After, keyed by the X-Client header; other clients
// pass.
func TestProtectHTTPRateLimit429(t *testing.T) {
	var busy atomic.Int64
	ts, srv := newProtectedServer(t, &busy, bipartite.ServerConfig{
		MaxBatch:      16,
		RatePerClient: 1,
		RateBurst:     1,
	})
	defer srv.Close()
	defer ts.Close()
	id := registerRing(t, ts, 32)

	post := func(client string) (*http.Response, map[string]any) {
		t.Helper()
		req := map[string]any{"graph": id, "algorithm": "karpsipser", "seed": 1}
		resp, body := postJSONHeaders(t, ts.URL+"/match", req, map[string]string{"X-Client": client})
		return resp, body
	}
	if resp, body := post("alice"); resp.StatusCode != http.StatusOK {
		t.Fatalf("first alice request: status %d body %v", resp.StatusCode, body)
	}
	resp, body := post("alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second alice request: status %d body %v, want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 Retry-After %q, want a positive hint", ra)
	}
	if resp, body := post("bob"); resp.StatusCode != http.StatusOK {
		t.Fatalf("bob caught in alice's bucket: status %d body %v", resp.StatusCode, body)
	}
}

// TestProtectHTTPBadPriority: an unknown priority is a 400, before any
// kernel runs.
func TestProtectHTTPBadPriority(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxGraphs: 4, MaxBody: 1 << 20})
	id := registerRing(t, ts, 16)
	resp, body := postJSON(t, ts.URL+"/match", map[string]any{
		"graph": id, "algorithm": "twosided", "priority": "urgent",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad priority: status %d body %v, want 400", resp.StatusCode, body)
	}
}
