package servehttp

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

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
