package servehttp

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	bipartite "repro"
)

// The native fuzz targets drive the production mux with arbitrary JSON
// bodies — the decoders, the spec translation, and the graph/mutation
// validation must answer every input with a clean status, never a panic,
// an unbounded allocation, or a hung kernel. CI smoke-runs each target
// for a few seconds on every push; `go test -fuzz FuzzMatchServe... `
// runs them open-endedly.

// fuzzMux builds a handler on a small, tightly bounded server: a short
// default deadline bounds kernel work on adversarial-but-valid specs
// (e.g. huge best_of ensembles), and a small body cap bounds decode work.
func fuzzMux(f *testing.F) (*http.ServeMux, string) {
	f.Helper()
	srv := bipartite.NewServerConfig(&bipartite.Options{ScalingIterations: 2, Workers: 1},
		bipartite.ServerConfig{MaxBatch: 4})
	h := NewHandler(srv, Config{MaxGraphs: 4, MaxBody: 1 << 14, Timeout: 2 * time.Second})
	mux := NewMux(h)
	f.Cleanup(srv.Close)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/graph",
		strings.NewReader(`{"rows":5,"cols":5,"edges":[[0,0],[1,1],[2,2],[3,3],[4,4],[0,1],[1,2]]}`)))
	if rec.Code != http.StatusOK {
		f.Fatalf("seed graph registration: status %d body %s", rec.Code, rec.Body)
	}
	var reg struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reg); err != nil {
		f.Fatal(err)
	}
	return mux, reg.ID
}

// statusAllowed is the closed set of statuses the service may answer a
// syntactically arbitrary request with; anything else (or a panic, which
// ServeHTTP would propagate here) fails the target.
func statusAllowed(code int) bool {
	switch code {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
		http.StatusRequestEntityTooLarge, http.StatusTooManyRequests,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// FuzzMatchServePatchDecode fuzzes the PATCH /graph/{id} decoder and the
// mutation validation behind it. The graph is shared across inputs, so
// the session also absorbs every accepted batch — a long fuzz run doubles
// as a soak test of the incremental maintenance.
func FuzzMatchServePatchDecode(f *testing.F) {
	mux, id := fuzzMux(f)
	f.Add([]byte(`{"insert":[[0,1]],"delete":[[0,0]]}`))
	f.Add([]byte(`{"insert":[[9,9]]}`))
	f.Add([]byte(`{"delete":[[0,0],[0,0],[4,4]]}`))
	f.Add([]byte(`{"insert":null,"delete":null}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"insert":[[0]]}`))
	f.Add([]byte(`{"insert":[[-1,2]]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPatch, "/graph/"+id, bytes.NewReader(body)))
		if !statusAllowed(rec.Code) {
			t.Fatalf("PATCH answered %d (body %q)", rec.Code, body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		// Accepted batches must report a coherent maintained state.
		var out struct {
			Rows, Cols, Edges, MaintainedSize int `json:"-"`
		}
		var m map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatalf("200 PATCH reply not JSON: %v (%q)", err, rec.Body.Bytes())
		}
		out.Rows, out.Cols = int(m["rows"].(float64)), int(m["cols"].(float64))
		out.Edges, out.MaintainedSize = int(m["edges"].(float64)), int(m["maintained_size"].(float64))
		if out.MaintainedSize > out.Rows || out.MaintainedSize > out.Cols || out.MaintainedSize > out.Edges {
			t.Fatalf("impossible maintained_size %d for %dx%d graph with %d edges",
				out.MaintainedSize, out.Rows, out.Cols, out.Edges)
		}
	})
}

// FuzzMatchServeMatchDecode fuzzes the /match decoder: the spec
// translation, the inline graph builder (with its wire dimension cap) and
// the registered-graph path.
func FuzzMatchServeMatchDecode(f *testing.F) {
	mux, id := fuzzMux(f)
	f.Add([]byte(`{"graph":"` + id + `","algorithm":"twosided","seed":7}`))
	f.Add([]byte(`{"graph":"` + id + `","refine":"exact","best_of":4}`))
	f.Add([]byte(`{"rows":3,"cols":3,"edges":[[0,0],[1,1],[2,2]],"algorithm":"onesided"}`))
	f.Add([]byte(`{"rows":1000000000,"cols":1,"edges":[]}`))
	f.Add([]byte(`{"graph":"nope"}`))
	f.Add([]byte(`{"algorithm":"magic"}`))
	f.Add([]byte(`{"graph":"` + id + `","op":"karpsipser"}`))
	f.Add([]byte(`{"best_of":-3}`))
	f.Add([]byte(`{"graph":"` + id + `","timeout_ms":1}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/match", bytes.NewReader(body)))
		if !statusAllowed(rec.Code) {
			t.Fatalf("/match answered %d (body %q)", rec.Code, body)
		}
	})
}

// TestMatchServeWireDimCap pins the fuzz-found guard: a tiny body asking
// for a gigantic vertex set is a 400, not a multi-gigabyte allocation.
func TestMatchServeWireDimCap(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxGraphs: 4, MaxBody: 1 << 20})
	resp, body := postJSON(t, ts.URL+"/graph", map[string]any{
		"rows": 1_000_000_000, "cols": 1, "edges": [][2]int{},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("giant rows: status %d body %v, want 400", resp.StatusCode, body)
	}
	if errMsg, _ := body["error"].(string); !strings.Contains(errMsg, "capped") {
		t.Fatalf("giant rows error %q, want the cap message", errMsg)
	}
	resp, _ = postJSON(t, ts.URL+"/match", map[string]any{
		"rows": 1, "cols": 1_000_000_000, "edges": [][2]int{}, "algorithm": "twosided",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("giant cols inline: status %d, want 400", resp.StatusCode)
	}
}
