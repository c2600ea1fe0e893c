package servehttp

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestMatchServeSpecFields drives the declarative spec fields end to end:
// algorithm selection beyond the legacy ops, exact refinement reaching the
// ring's perfect matching, and best-of ensembles.
func TestMatchServeSpecFields(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxGraphs: 8, MaxBody: 1 << 20})
	id := registerRing(t, ts, 64)

	// cheap-vertex alone is a 1/2-approximation; refined it must hit the
	// ring's sprank of 64 exactly — and the provenance fields must report
	// the refinement: one candidate, the requested seed, and a heuristic
	// size no larger than the refined one.
	resp, body := postJSON(t, ts.URL+"/match", map[string]any{
		"graph": id, "algorithm": "cheap-vertex", "seed": 3, "refine": "exact",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/match refine: status %d body %v", resp.StatusCode, body)
	}
	if int(body["size"].(float64)) != 64 {
		t.Fatalf("refined size %v, want 64 (sprank of the ring)", body["size"])
	}
	if body["refined"] != true {
		t.Fatalf("refined run lacks the provenance flag: %v", body)
	}
	if int(body["winner_seed"].(float64)) != 3 || int(body["candidates_run"].(float64)) != 1 {
		t.Fatalf("single-run provenance (%v, %v) want (3, 1)", body["winner_seed"], body["candidates_run"])
	}
	if hs := int(body["heuristic_size"].(float64)); hs > 64 || hs < 1 {
		t.Fatalf("heuristic_size %d outside (0, 64]", hs)
	}

	// The push-relabel refinement family is reachable over the wire and
	// reaches the same maximum.
	resp, body = postJSON(t, ts.URL+"/match", map[string]any{
		"graph": id, "algorithm": "cheap-vertex", "seed": 3, "refine": "pushrelabel",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/match pushrelabel: status %d body %v", resp.StatusCode, body)
	}
	if int(body["size"].(float64)) != 64 || body["refined"] != true {
		t.Fatalf("pushrelabel-refined response %v, want size 64 refined", body)
	}

	// A best-of-8 ensemble with a target: valid request, sane response,
	// ensemble provenance on the wire. A body that still carries the
	// removed "sequential" key is decoded like any other unknown key, so
	// its answer must not change.
	ensembleReq := map[string]any{
		"graph": id, "algorithm": "twosided", "seed": 1, "best_of": 8, "target": 0.9,
	}
	resp, body = postJSON(t, ts.URL+"/match", ensembleReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/match ensemble: status %d body %v", resp.StatusCode, body)
	}
	if size := int(body["size"].(float64)); size < 52 || size > 64 {
		t.Fatalf("ensemble size %d outside [52, 64]", size)
	}
	if ws := int(body["winner_seed"].(float64)); ws < 1 || ws > 8 {
		t.Fatalf("ensemble winner_seed %d outside [1, 8]", ws)
	}
	cand := int(body["candidates_run"].(float64))
	if cand < 1 || cand > 8 {
		t.Fatalf("ensemble candidates_run %d outside [1, 8]", cand)
	}
	if body["refined"] != false {
		t.Fatalf("unrefined ensemble reports refined = %v, want false", body["refined"])
	}
	ensembleReq["sequential"] = true
	resp, seqBody := postJSON(t, ts.URL+"/match", ensembleReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/match sequential ensemble: status %d body %v", resp.StatusCode, seqBody)
	}
	if seqBody["size"] != body["size"] || seqBody["winner_seed"] != body["winner_seed"] ||
		seqBody["candidates_run"] != body["candidates_run"] {
		t.Fatalf("\"sequential\" body drifted from the default: %v vs %v", seqBody, body)
	}

	// The extended algorithms are reachable over the wire.
	for _, alg := range []string{"karpsipser-parallel", "cheap-edge", "onesided"} {
		resp, body = postJSON(t, ts.URL+"/match", map[string]any{
			"graph": id, "algorithm": alg, "seed": 5,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/match %s: status %d body %v", alg, resp.StatusCode, body)
		}
	}

	// The removed "op" selector is refused in a batch too: its entry gets
	// an in-band error naming "algorithm" (never a silent TwoSided run),
	// and its neighbour is answered normally.
	resp, body = postJSON(t, ts.URL+"/match/batch", map[string]any{
		"requests": []map[string]any{
			{"graph": id, "op": "karpsipser", "seed": 7},
			{"graph": id, "algorithm": "twosided", "seed": 7, "refine": "exact"},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/match/batch: status %d body %v", resp.StatusCode, body)
	}
	rs := body["responses"].([]any)
	if len(rs) != 2 {
		t.Fatalf("batch responses %d, want 2", len(rs))
	}
	op := rs[0].(map[string]any)
	if errMsg, _ := op["error"].(string); !strings.Contains(errMsg, `"algorithm"`) {
		t.Fatalf("batched \"op\" entry: %v, want an in-band error naming \"algorithm\"", op)
	}
	if op["row_mate"] != nil {
		t.Fatalf("batched \"op\" entry was answered: %v", op)
	}
	if size := int(rs[1].(map[string]any)["size"].(float64)); size != 64 {
		t.Fatalf("batched refined size %d, want 64", size)
	}
}

// TestMatchServeSpecInvalid pins the precise-400 contract: every
// malformed spec field is rejected before any kernel runs, with the error
// in the body.
func TestMatchServeSpecInvalid(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxGraphs: 8, MaxBody: 1 << 20})
	id := registerRing(t, ts, 16)

	cases := []struct {
		name string
		req  map[string]any
	}{
		{"unknown algorithm", map[string]any{"graph": id, "algorithm": "simulated-annealing"}},
		{"unknown refine", map[string]any{"graph": id, "refine": "approximately"}},
		{"negative best_of", map[string]any{"graph": id, "best_of": -3}},
		{"target above 1", map[string]any{"graph": id, "target": 1.5}},
		{"negative target", map[string]any{"graph": id, "target": -0.1}},
		{"op", map[string]any{"graph": id, "op": "karpsipser"}},
		{"unknown graph", map[string]any{"graph": "g999", "algorithm": "twosided"}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/match", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d body %v, want 400", tc.name, resp.StatusCode, body)
		}
		if body["error"] == nil || body["error"].(string) == "" {
			t.Fatalf("%s: 400 without an error body: %v", tc.name, body)
		}
	}
	// The removed "op" selector is refused, never run as TwoSided, and the
	// 400 points the client at "algorithm".
	_, opBody := postJSON(t, ts.URL+"/match", map[string]any{"graph": id, "op": "karpsipser"})
	if msg, _ := opBody["error"].(string); !strings.Contains(msg, `"algorithm"`) {
		t.Fatalf(`"op" error %q, want it to name "algorithm"`, msg)
	}

	// In a batch, a bad spec fails only its own slot.
	resp, body := postJSON(t, ts.URL+"/match/batch", map[string]any{
		"requests": []map[string]any{
			{"graph": id, "algorithm": "nope"},
			{"graph": id, "algorithm": "twosided", "seed": 2},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with one bad spec: status %d body %v", resp.StatusCode, body)
	}
	rs := body["responses"].([]any)
	if errStr, _ := rs[0].(map[string]any)["error"].(string); errStr == "" {
		t.Fatalf("bad batch entry did not carry an error: %v", rs[0])
	}
	if size := int(rs[1].(map[string]any)["size"].(float64)); size <= 0 {
		t.Fatalf("good batch entry failed alongside the bad one: %v", rs[1])
	}
}

// TestMatchServeBatchGzip round-trips a gzip-encoded batch: compressed
// request envelope in, compressed response envelope out, bit-for-bit
// equal to the identity-encoded exchange.
func TestMatchServeBatchGzip(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxGraphs: 8, MaxBody: 1 << 20})
	id := registerRing(t, ts, 32)

	payload := map[string]any{
		"requests": []map[string]any{
			{"graph": id, "algorithm": "twosided", "seed": 1},
			{"graph": id, "algorithm": "karpsipser", "seed": 2},
		},
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}

	// Reference exchange: no compression anywhere.
	plainResp, plainBody := postJSON(t, ts.URL+"/match/batch", payload)
	if plainResp.StatusCode != http.StatusOK {
		t.Fatalf("plain batch: status %d", plainResp.StatusCode)
	}

	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/match/batch", &zbuf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "gzip")
	// Setting Accept-Encoding explicitly disables the transport's
	// transparent decompression, so the wire bytes stay observable.
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gzip batch: status %d", resp.StatusCode)
	}
	if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("response Content-Encoding %q, want gzip", ce)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatalf("response is not valid gzip: %v", err)
	}
	var gzBody map[string]any
	if err := json.NewDecoder(zr).Decode(&gzBody); err != nil {
		t.Fatal(err)
	}
	plainJSON, _ := json.Marshal(plainBody["responses"])
	gzJSON, _ := json.Marshal(gzBody["responses"])
	if !bytes.Equal(plainJSON, gzJSON) {
		t.Fatalf("gzip responses differ from identity responses:\n%s\nvs\n%s", gzJSON, plainJSON)
	}

	// A corrupt gzip body is a 400, not a hang or a 500.
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/match/batch", strings.NewReader("not gzip at all"))
	req2.Header.Set("Content-Encoding", "gzip")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt gzip: status %d, want 400", resp2.StatusCode)
	}
}

// TestMatchServeMetricsProm scrapes /metrics in Prometheus text format —
// via the query parameter and via content negotiation — and checks the
// histogram and counter series are well formed.
func TestMatchServeMetricsProm(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxGraphs: 8, MaxBody: 1 << 20})
	id := registerRing(t, ts, 32)
	for s := 1; s <= 3; s++ {
		resp, body := postJSON(t, ts.URL+"/match", map[string]any{
			"graph": id, "algorithm": "twosided", "seed": s,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/match: status %d body %v", resp.StatusCode, body)
		}
	}

	fetch := func(url string, hdr map[string]string) string {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", url, resp.StatusCode)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("%s: content type %q, want text/plain", url, ct)
		}
		return string(raw)
	}

	byQuery := fetch(ts.URL+"/metrics?format=prom", nil)
	byAccept := fetch(ts.URL+"/metrics", map[string]string{"Accept": "text/plain"})
	for _, text := range []string{byQuery, byAccept} {
		for _, want := range []string{
			"# TYPE matchserve_request_duration_seconds histogram",
			`matchserve_request_duration_seconds_bucket{op="twosided",le="+Inf"} 3`,
			`matchserve_request_duration_seconds_count{op="twosided"} 3`,
			"# TYPE matchserve_requests_total counter",
			"matchserve_requests_total 3",
			"# TYPE matchserve_graphs gauge",
			"matchserve_graphs 1",
		} {
			if !strings.Contains(text, want) {
				t.Fatalf("prom output missing %q:\n%s", want, text)
			}
		}
	}

	// Cumulative buckets must be monotone and end at the count.
	lines := strings.Split(byQuery, "\n")
	last := int64(-1)
	for _, ln := range lines {
		if !strings.HasPrefix(ln, `matchserve_request_duration_seconds_bucket{op="twosided"`) {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(ln[strings.LastIndex(ln, " ")+1:], "%d", &v); err != nil {
			t.Fatalf("unparseable bucket line %q: %v", ln, err)
		}
		if v < last {
			t.Fatalf("non-monotone cumulative buckets at %q", ln)
		}
		last = v
	}
	if last != 3 {
		t.Fatalf("last cumulative bucket %d, want 3", last)
	}

	// The JSON body stays the default.
	resp, body := getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK || body["ops"] == nil {
		t.Fatalf("JSON metrics: status %d body %v", resp.StatusCode, body)
	}
}

// TestMatchServeDeleteDropsGraph: DELETE evicts the registry entry (the
// id stops resolving); the engine-side scale-cache drop it triggers is
// gated in the library's TestSpecServerDropGraph.
func TestMatchServeDeleteDropsGraph(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxGraphs: 8, MaxBody: 1 << 20})
	id := registerRing(t, ts, 16)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/graph/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	postResp, body := postJSON(t, ts.URL+"/match", map[string]any{"graph": id, "algorithm": "twosided"})
	if postResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("match after delete: status %d body %v, want 400", postResp.StatusCode, body)
	}
}
