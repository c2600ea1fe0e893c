package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
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
		// The rest cross the encoder's 4,096-byte buffer many times, at
		// every alignment of an entry against the buffer's end.
		"large": *largeResponse(),
		"widest-mates": {
			Size: 5000, Rows: 5000, Cols: 5000, RowMate: fill(5000, func(int) int32 { return math.MaxInt32 }),
			WinnerSeed: 2, CandidatesRun: 1, HeuristicSize: 5000, Ms: 3.5,
		},
		"unmatched-mates": {
			Rows: 9000, Cols: 9000, RowMate: fill(9000, func(int) int32 { return -1 }),
			WinnerSeed: 4, CandidatesRun: 1,
		},
		"mixed-widths": {
			Size: 7001, Rows: 7001, Cols: 7001, RowMate: fill(7001, func(i int) int32 {
				// 1 to 11 characters, cycling with a period prime to the
				// buffer size, plus the int32 extremes.
				switch i % 13 {
				case 11:
					return math.MinInt32
				case 12:
					return math.MaxInt32
				}
				v := int32(1)
				for k := 0; k < i%10; k++ {
					v *= 10
				}
				if i%3 == 0 {
					return -v
				}
				return v + int32(i%7)
			}),
			WinnerSeed: math.MaxUint64, CandidatesRun: 8, HeuristicSize: 7000,
			Refined: true, RefinedWith: "graft", Degraded: "best_of:8->2", Ms: 12.25,
			Replica: "http://127.0.0.1:8482",
		},
	}
}

func fill(n int, f func(i int) int32) []int32 {
	v := make([]int32, n)
	for i := range v {
		v[i] = f(i)
	}
	return v
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

// TestEncodeMatchSteadyStateAllocs is the encoder's allocation gate: an
// answer ten times longer must not cost a single extra allocation,
// because row_mate entries are formatted in the writer's own buffer.
func TestEncodeMatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	small := largeResponse()
	big := *small
	big.RowMate = fill(10*len(small.RowMate), func(i int) int32 { return small.RowMate[i%len(small.RowMate)] })
	big.Rows, big.Cols = len(big.RowMate), len(big.RowMate)
	allocs := func(mr *MatchResponse) float64 {
		var buf bytes.Buffer
		buf.Grow(16 << 20)
		return testing.AllocsPerRun(50, func() {
			buf.Reset()
			if err := encodeMatch(&buf, mr); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := allocs(small), allocs(&big)
	t.Logf("allocations per answer: %v for %d rows, %v for %d rows", a, len(small.RowMate), b, len(big.RowMate))
	if a != b || a > 8 {
		t.Fatalf("encoding %d rows allocates %v times and %d rows %v times; want the same small count",
			len(small.RowMate), a, len(big.RowMate), b)
	}
}

// FuzzEncodeMatch is the encoder's differential oracle: for any response
// value, single and in a batch envelope, the encoder writes exactly the
// bytes json.Encoder writes, and fails exactly when it fails (NaN and
// infinite floats). row_mate is built from the fuzzer's bytes, four per
// entry, long enough to cross the write buffer.
func FuzzEncodeMatch(f *testing.F) {
	cases := streamCases()
	mixed := cases["mixed-widths"]
	mixed.RowMate = mixed.RowMate[:1200] // about 9 KB: crosses the buffer twice
	cases["mixed-widths"] = mixed
	for _, name := range []string{"full", "error", "auction", "empty-mates", "routed", "mixed-widths"} {
		mr := cases[name]
		raw := make([]byte, 4*len(mr.RowMate))
		for i, m := range mr.RowMate {
			binary.LittleEndian.PutUint32(raw[4*i:], uint32(m))
		}
		f.Add(mr.Size, mr.Rows, raw, mr.RowMate == nil, mr.WinnerSeed, mr.CandidatesRun, mr.HeuristicSize,
			mr.Refined, mr.RefinedWith, mr.MatchedWeight, mr.Epsilon, mr.Rounds, mr.Degraded, mr.Ms, mr.Error, mr.Replica)
	}
	f.Add(-1, math.MaxInt, []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0x80}, false, uint64(0), math.MinInt, 0,
		false, "<&>\u2028\"", 1e21, 1e-7, -3, "caf\xc3\xa9 \xff", math.NaN(), "\x00\n\t", "é")
	f.Fuzz(func(t *testing.T, size, rows int, raw []byte, nilMates bool, seed uint64, cands, heur int,
		refined bool, refinedWith string, weight, eps float64, rounds int, degraded string, ms float64, errText, replica string) {
		mr := MatchResponse{
			Size: size, Rows: rows, Cols: rows, WinnerSeed: seed, CandidatesRun: cands, HeuristicSize: heur,
			Refined: refined, RefinedWith: refinedWith, MatchedWeight: weight, Epsilon: eps, Rounds: rounds,
			Degraded: degraded, Ms: ms, Error: errText, Replica: replica,
		}
		if !nilMates {
			mr.RowMate = make([]int32, len(raw)/4)
			for i := range mr.RowMate {
				mr.RowMate[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
			}
		}
		check := func(what string, v any, encode func(*bytes.Buffer) error) {
			var got, want bytes.Buffer
			err := encode(&got)
			wantErr := json.NewEncoder(&want).Encode(v)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: encoder error %v, encoding/json error %v", what, err, wantErr)
			}
			if err == nil && !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s diverges from encoding/json\n got: %s\nwant: %s", what, got.Bytes(), want.Bytes())
			}
		}
		check("match", &mr, func(w *bytes.Buffer) error { return encodeMatch(w, &mr) })
		br := BatchResponse{Ms: ms, Responses: []MatchResponse{mr, {Error: errText}, mr}}
		check("batch", &br, func(w *bytes.Buffer) error { return EncodeBatch(w, &br) })
	})
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
