package servehttp

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	bipartite "repro"
	"repro/internal/wire"
)

// The replica's write path — status, headers, and the internal/wire
// encoder underneath — must stay indistinguishable from encoding/json:
// these tests pin byte equality against json.Encoder for every
// field-presence combination the handlers can produce, so any drift in
// field order, omitempty behavior, escaping, or float formatting fails
// loudly instead of silently changing the replicas' wire format.

func streamCases() map[string]wire.MatchResponse {
	return map[string]wire.MatchResponse{
		"full": {
			Size: 3, Rows: 4, Cols: 5, RowMate: []int32{0, -1, 2, 4},
			WinnerSeed: 18446744073709551615, CandidatesRun: 8, HeuristicSize: 2,
			Refined: true, RefinedWith: "graft", Ms: 1.234567,
		},
		"refined-exact": {
			Size: 3, Rows: 3, Cols: 3, RowMate: []int32{0, 1, 2},
			WinnerSeed: 1, CandidatesRun: 1, HeuristicSize: 2,
			Refined: true, RefinedWith: "exact", Ms: 0.5,
		},
		"degraded": {
			Size: 2, Rows: 2, Cols: 2, RowMate: []int32{1, 0},
			WinnerSeed: 7, CandidatesRun: 2, HeuristicSize: 2,
			Degraded: "refine:exact->none,best_of:8->2", Ms: 0.001,
		},
		"error": {
			RowMate: nil, Error: `spec: <bad> "refine" & more`,
		},
		"auction": {
			Size: 3, Rows: 3, Cols: 4, RowMate: []int32{0, 1, 2},
			WinnerSeed: 9, CandidatesRun: 4, HeuristicSize: 3,
			MatchedWeight: 2.718281828459045, Epsilon: 0.05, Rounds: 17, Ms: 0.75,
		},
		"auction-degraded": {
			Size: 2, Rows: 2, Cols: 2, RowMate: []int32{1, 0},
			WinnerSeed: 3, CandidatesRun: 1, HeuristicSize: 2,
			MatchedWeight: 1.5, Epsilon: 0.1, Rounds: 2,
			Degraded: "best_of:8->2", Ms: 0.25,
		},
		"empty-mates": {
			Size: 0, Rows: 0, Cols: 0, RowMate: []int32{},
		},
		"zero-ms-omitted": {
			Size: 1, Rows: 1, Cols: 1, RowMate: []int32{0}, Ms: 0,
		},
	}
}

func encodingJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStreamMatchesEncodingJSON(t *testing.T) {
	for name, mr := range streamCases() {
		t.Run(name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			writeMatchStream(rec, http.StatusOK, &mr)
			got := rec.Body.Bytes()
			want := encodingJSON(t, &mr)
			if !bytes.Equal(got, want) {
				t.Errorf("stream encoding diverges from encoding/json\n got: %s\nwant: %s", got, want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q", ct)
			}
			// The stream must also round-trip through the decoder.
			var back wire.MatchResponse
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatalf("stream output does not parse: %v", err)
			}
		})
	}
}

func TestStreamBatchEnvelope(t *testing.T) {
	cases := streamCases()
	out := []wire.MatchResponse{cases["full"], cases["error"], cases["degraded"]}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/match/batch", nil)
	writeBatchStream(rec, req, http.StatusOK, out, 12.5)
	want := encodingJSON(t, wire.BatchResponse{Ms: 12.5, Responses: out})
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("batch stream diverges from encoding/json\n got: %s\nwant: %s", got, want)
	}
}

func TestStreamBatchGzip(t *testing.T) {
	out := []wire.MatchResponse{streamCases()["full"]}

	plainRec := httptest.NewRecorder()
	writeBatchStream(plainRec, httptest.NewRequest(http.MethodPost, "/match/batch", nil),
		http.StatusOK, out, 3.25)

	zreq := httptest.NewRequest(http.MethodPost, "/match/batch", nil)
	zreq.Header.Set("Accept-Encoding", "gzip")
	zrec := httptest.NewRecorder()
	writeBatchStream(zrec, zreq, http.StatusOK, out, 3.25)

	if ce := zrec.Header().Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("Content-Encoding %q, want gzip", ce)
	}
	zr, err := gzip.NewReader(zrec.Body)
	if err != nil {
		t.Fatal(err)
	}
	inflated, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inflated, plainRec.Body.Bytes()) {
		t.Errorf("gzip stream inflates to different bytes\n got: %s\nwant: %s", inflated, plainRec.Body.Bytes())
	}
}

// discardResponse is a reusable http.ResponseWriter that drops the body,
// so an allocation count measures the handler and not the recorder.
type discardResponse struct {
	header http.Header
	code   int
	n      int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) WriteHeader(code int)        { d.code = code }
func (d *discardResponse) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// TestMatchHandlerSteadyStateAllocs is the replica's allocation gate: a
// warm /match costs the same number of allocations on a 1,000-row and a
// 9,000-row graph, up to a small constant. The row_mate array, one entry
// per row, must not allocate per entry anywhere between the engine and
// the socket.
func TestMatchHandlerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	srv := bipartite.NewServerConfig(&bipartite.Options{ScalingIterations: 5, Workers: 1},
		bipartite.ServerConfig{MaxBatch: 16})
	defer srv.Close()
	mux := NewMux(NewHandler(srv, Config{}))
	allocs := func(n int) float64 {
		edges := make([][2]int, 0, 2*n)
		for i := 0; i < n; i++ {
			edges = append(edges, [2]int{i, i}, [2]int{i, (i + 1) % n})
		}
		raw, err := json.Marshal(map[string]any{"rows": n, "cols": n, "edges": edges})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/graph", bytes.NewReader(raw)))
		var reg struct{ ID string }
		if err := json.Unmarshal(rec.Body.Bytes(), &reg); err != nil || reg.ID == "" {
			t.Fatalf("register %d rows: %d %s", n, rec.Code, rec.Body.Bytes())
		}
		body := []byte(`{"graph":"` + reg.ID + `","seed":5}`)
		req := httptest.NewRequest(http.MethodPost, "/match", nil)
		w := &discardResponse{header: http.Header{}}
		var rd bytes.Reader
		match := func() {
			rd.Reset(body)
			req.Body = io.NopCloser(&rd)
			w.code, w.n = 0, 0
			mux.ServeHTTP(w, req)
			if w.code != http.StatusOK || w.n < n {
				t.Fatalf("/match on %d rows: status %d, %d bytes", n, w.code, w.n)
			}
		}
		for range 3 {
			match() // warm the scaling, the session arena and the pools
		}
		return testing.AllocsPerRun(50, match)
	}
	small, big := allocs(1000), allocs(9000)
	t.Logf("allocations per warm /match: %v at 1,000 rows, %v at 9,000 rows", small, big)
	if d := big - small; d > 3 || d < -3 {
		t.Fatalf("a warm /match allocates %v times at 1,000 rows and %v at 9,000 rows; want the same count within 3",
			small, big)
	}
}
