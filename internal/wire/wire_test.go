package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// The encoder's only contract is "indistinguishable from encoding/json":
// these tests pin byte equality against json.Encoder for every
// field-presence combination the replicas and the router can produce, so
// any drift in field order, omitempty behavior, escaping, or float
// formatting fails loudly instead of silently changing the wire format.

func streamCases() map[string]MatchResponse {
	return map[string]MatchResponse{
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
		"routed": {
			Size: 2, Rows: 3, Cols: 2, RowMate: []int32{1, -1, 0},
			WinnerSeed: 5, CandidatesRun: 3, HeuristicSize: 2, Ms: 0.125,
			Replica: "http://127.0.0.1:8481",
		},
	}
}

func encodingJSON(t testing.TB, v any) []byte {
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
			WriteMatch(rec, http.StatusOK, &mr)
			got := rec.Body.Bytes()
			want := encodingJSON(t, &mr)
			if !bytes.Equal(got, want) {
				t.Errorf("stream encoding diverges from encoding/json\n got: %s\nwant: %s", got, want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q", ct)
			}
			// The stream must also round-trip through the decoder.
			var back MatchResponse
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatalf("stream output does not parse: %v", err)
			}
		})
	}
}

func TestStreamBatchEnvelope(t *testing.T) {
	cases := streamCases()
	for name, br := range map[string]BatchResponse{
		"mixed": {Ms: 12.5, Responses: []MatchResponse{cases["full"], cases["error"], cases["degraded"], cases["routed"]}},
		"empty": {Ms: 0.001, Responses: []MatchResponse{}},
		"nil":   {},
	} {
		var buf bytes.Buffer
		if err := EncodeBatch(&buf, &br); err != nil {
			t.Fatal(err)
		}
		if want := encodingJSON(t, &br); !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: batch stream diverges from encoding/json\n got: %s\nwant: %s", name, buf.Bytes(), want)
		}
	}
}

// TestDecodeRoundTrip decodes every encoder output, single and batched,
// and checks the direct path took it: the canonical layout must never
// need encoding/json.
func TestDecodeRoundTrip(t *testing.T) {
	var all []MatchResponse
	for name, mr := range streamCases() {
		var buf bytes.Buffer
		if err := encodeMatch(&buf, &mr); err != nil {
			t.Fatal(err)
		}
		d := decoder{data: buf.Bytes()}
		var direct MatchResponse
		if !d.match(&direct) || !d.end() {
			t.Fatalf("%s: canonical body left the direct path at byte %d: %s", name, d.pos, buf.Bytes())
		}
		var want MatchResponse
		if err := json.Unmarshal(buf.Bytes(), &want); err != nil || !reflect.DeepEqual(direct, want) {
			t.Fatalf("%s: decoded %+v, encoding/json %+v (%v)", name, direct, want, err)
		}
		got, err := ReadMatch(&buf)
		if err != nil || !reflect.DeepEqual(got, direct) {
			t.Fatalf("%s: ReadMatch = %+v, %v", name, got, err)
		}
		all = append(all, mr)
	}
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, &BatchResponse{Ms: 3.25, Responses: all}); err != nil {
		t.Fatal(err)
	}
	d := decoder{data: buf.Bytes()}
	var direct BatchResponse
	if !d.batch(&direct) || !d.end() {
		t.Fatalf("canonical batch left the direct path at byte %d", d.pos)
	}
	var want BatchResponse
	if err := json.Unmarshal(buf.Bytes(), &want); err != nil || !reflect.DeepEqual(direct, want) {
		t.Fatalf("batch decoded %+v, encoding/json %+v (%v)", direct, want, err)
	}
	got, err := ReadBatch(&buf)
	if err != nil || !reflect.DeepEqual(got, direct) {
		t.Fatalf("ReadBatch = %+v, %v", got, err)
	}
}

// FuzzDecodeMatch is the decoder's differential oracle: on any input,
// single or batch, decodeMatch and decodeBatch must return exactly what
// json.Unmarshal returns — the same success, the same error text, the
// same value.
//
// The seeds are replica and router bodies as the encoder writes them,
// plus the departures from that layout the decoder must hand to
// encoding/json.
func FuzzDecodeMatch(f *testing.F) {
	cases := streamCases()
	for _, name := range []string{"full", "error", "degraded", "auction", "auction-degraded", "empty-mates", "routed"} {
		mr := cases[name]
		f.Add(encodingJSON(f, &mr))
	}
	f.Add(encodingJSON(f, &BatchResponse{Ms: 12.5, Responses: []MatchResponse{cases["full"], cases["error"], cases["degraded"]}}))
	for _, s := range []string{
		`{"ms":0.5,"responses":[]}`,
		`{"ms":0.5,"responses":null}`,
		`{"size":0,"rows":0,"cols":0,"row_mate":null,"winner_seed":0,"candidates_run":0,"heuristic_size":0,"refined":false,"error":"replica \"r1\": <shed> \\ \t"}`,
		` { "size" : 2 ,"rows":2, "cols":2,"row_mate" : [ 1 , 0 ] ,"refined":true }` + "\n\n",
		`{"rows":2,"row_mate":[1,0],"size":2,"Size":3}`,
		`{"rows":2,"row_mate":[1,0],"unknown":{"nested":[1,{"x":null}]}}`,
		`{"row_mate":[-0,1]}`,
		`{"row_mate":[+1]}`,
		`{"row_mate":[1e3]}`,
		`{"row_mate":[2147483648]}`,
		`{"row_mate":[-2147483649,-2147483648,2147483647]}`,
		`{"row_mate":[01]}`,
		`{"size":1.0,"ms":1e-3,"epsilon":-0,"winner_seed":-0}`,
		`{"matched_weight":1e400}`,
		`{"row_mate":[1],"row_mate":[2,3]}`,
		`{"responses":[{"size":1}],"responses":[{"rows":2}]}`,
		"{\"degraded\":\"caf\xc3\xa9 \xff\"}",
		`{"refined":null,"size":null}`,
		`null`,
		`{"size":1}x`,
		`{"size":1}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeMatch(data)
		var want MatchResponse
		wantErr := json.Unmarshal(data, &want)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeMatch(%q)\n got: %+v, %v\nwant: %+v, %v", data, got, err, want, wantErr)
		}
		gotB, err := decodeBatch(data)
		var wantB BatchResponse
		wantErr = json.Unmarshal(data, &wantB)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(gotB, wantB) {
			t.Fatalf("decodeBatch(%q)\n got: %+v, %v\nwant: %+v, %v", data, gotB, err, wantB, wantErr)
		}
	})
}

// largeResponse is a routed answer of the size the serving benchmark's
// routed reads return: 5,750 rows, most matched, about 27 KB on the wire.
func largeResponse() *MatchResponse {
	const n = 5750
	mates := make([]int32, n)
	for i := range mates {
		mates[i] = int32((i*2654435761 + 7) % n)
		if i%9 == 4 {
			mates[i] = -1
		}
	}
	return &MatchResponse{
		Size: n - n/9, Rows: n, Cols: n, RowMate: mates,
		WinnerSeed: 1234567, CandidatesRun: 1, HeuristicSize: n - n/9,
		Ms: 1.234, Replica: "http://127.0.0.1:8481",
	}
}

func BenchmarkDecodeMatch(b *testing.B) {
	body := encodingJSON(b, largeResponse())
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			var mr MatchResponse
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&mr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codec", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			if _, err := ReadMatch(bytes.NewReader(body)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEncodeMatch(b *testing.B) {
	mr := largeResponse()
	var buf bytes.Buffer
	b.Run("encoding-json", func(b *testing.B) {
		for b.Loop() {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(mr); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
	b.Run("codec", func(b *testing.B) {
		for b.Loop() {
			buf.Reset()
			if err := encodeMatch(&buf, mr); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
}
