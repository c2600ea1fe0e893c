package servehttp

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// patchJSON issues a PATCH with a JSON body and decodes the JSON reply.
func patchJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPatch, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
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

// snapshotOf reads the registry's current graph pointer for id.
func snapshotOf(h *Handler, id string) any {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e := h.graphs[id]; e != nil {
		return e.g
	}
	return nil
}

// TestMatchServePatch is the wire-level gate of the dynamic sessions: a
// registered graph absorbs mutation batches through PATCH /graph/{id},
// the response carries the maintenance provenance (maintained_size is the
// mutated graph's structural rank), and subsequent /match requests are
// served from the mutated snapshot.
func TestMatchServePatch(t *testing.T) {
	ts, h := newTestServer(t, Config{MaxGraphs: 8, MaxBody: 1 << 20})
	id := registerRing(t, ts, 16) // perfect matching of size 16

	before := snapshotOf(h, id)

	// Isolate row 0 (both its ring edges): structural rank drops to 15 and
	// one matched pair is freed.
	resp, body := patchJSON(t, ts.URL+"/graph/"+id, map[string]any{
		"delete": [][2]int{{0, 0}, {0, 1}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH: status %d body %v", resp.StatusCode, body)
	}
	if int(body["deleted"].(float64)) != 2 || int(body["maintained_size"].(float64)) != 15 {
		t.Fatalf("PATCH body %v, want deleted=2 maintained_size=15", body)
	}
	if int(body["freed"].(float64)) < 1 {
		t.Fatalf("PATCH freed %v, want >= 1 (a matched edge died)", body["freed"])
	}
	if int(body["edges"].(float64)) != 30 {
		t.Fatalf("PATCH edges %v, want 30", body["edges"])
	}
	if after := snapshotOf(h, id); after == before {
		t.Fatal("dirty PATCH kept the registry snapshot — stale scaling would be served")
	}

	// /match now runs on the mutated snapshot: exact size is 15, not 16.
	resp, body = postJSON(t, ts.URL+"/match", map[string]any{
		"graph": id, "algorithm": "twosided", "refine": "exact", "seed": 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/match after PATCH: status %d body %v", resp.StatusCode, body)
	}
	if int(body["size"].(float64)) != 15 {
		t.Fatalf("/match size %v on mutated graph, want 15", body["size"])
	}

	// Re-inserting the deleted edge re-augments incrementally.
	resp, body = patchJSON(t, ts.URL+"/graph/"+id, map[string]any{
		"insert": [][2]int{{0, 0}},
	})
	if resp.StatusCode != http.StatusOK || int(body["maintained_size"].(float64)) != 16 {
		t.Fatalf("re-insert PATCH: status %d body %v, want maintained_size=16", resp.StatusCode, body)
	}
	if int(body["augments"].(float64)) < 1 {
		t.Fatalf("re-insert augments %v, want >= 1", body["augments"])
	}

	// A neutral batch (insert a present edge, delete an absent one) applies
	// nothing and keeps the snapshot pointer — warm scalings survive.
	mid := snapshotOf(h, id)
	resp, body = patchJSON(t, ts.URL+"/graph/"+id, map[string]any{
		"insert": [][2]int{{0, 0}},
		"delete": [][2]int{{0, 3}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("neutral PATCH: status %d body %v", resp.StatusCode, body)
	}
	if int(body["inserted"].(float64)) != 0 || int(body["deleted"].(float64)) != 0 {
		t.Fatalf("neutral PATCH body %v, want nothing applied", body)
	}
	if after := snapshotOf(h, id); after != mid {
		t.Fatal("neutral PATCH churned the registry snapshot")
	}

	// Full service continues: exact match back at 16.
	resp, body = postJSON(t, ts.URL+"/match", map[string]any{
		"graph": id, "algorithm": "twosided", "refine": "exact", "seed": 3,
	})
	if resp.StatusCode != http.StatusOK || int(body["size"].(float64)) != 16 {
		t.Fatalf("/match after repair: status %d size %v, want 16", resp.StatusCode, body["size"])
	}
}

// TestMatchServePatchErrors pins the failure statuses: unknown id 404,
// out-of-range endpoints 400 with the batch atomically rejected, malformed
// JSON 400.
func TestMatchServePatchErrors(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxGraphs: 8, MaxBody: 1 << 20})
	id := registerRing(t, ts, 8)

	resp, body := patchJSON(t, ts.URL+"/graph/nope", map[string]any{
		"insert": [][2]int{{0, 0}},
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d body %v, want 404", resp.StatusCode, body)
	}

	// Out-of-range endpoint: whole batch rejected, nothing applied.
	resp, body = patchJSON(t, ts.URL+"/graph/"+id, map[string]any{
		"insert": [][2]int{{0, 2}, {3, 99}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range: status %d body %v, want 400", resp.StatusCode, body)
	}
	if errMsg, _ := body["error"].(string); !strings.Contains(errMsg, "mutation") {
		t.Fatalf("out-of-range error %q, want invalid-mutation text", errMsg)
	}
	resp, body = patchJSON(t, ts.URL+"/graph/"+id, map[string]any{})
	if resp.StatusCode != http.StatusOK || int(body["edges"].(float64)) != 16 {
		t.Fatalf("after rejected batch: status %d edges %v, want the untouched 16", resp.StatusCode, body["edges"])
	}

	raw, err := http.NewRequest(http.MethodPatch, ts.URL+"/graph/"+id, strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	rresp, err := http.DefaultClient.Do(raw)
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: status %d, want 400", rresp.StatusCode)
	}
}
