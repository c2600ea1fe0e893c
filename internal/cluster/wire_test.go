package cluster_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	bipartite "repro"
	"repro/internal/cluster"
	"repro/internal/wire"
)

// The router relays match answers through internal/wire instead of
// encoding/json. These tests pin what a client sees: every router answer
// is byte-identical to json.NewEncoder(w).Encode of the same value, and a
// relayed single answer is the replica's own body plus "replica".

// assertEncodingJSON decodes raw into v with encoding/json and checks that
// re-encoding v with json.Encoder reproduces raw byte for byte.
func assertEncodingJSON(t *testing.T, what string, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: decode %s: %v", what, raw, err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Fatalf("%s: router bytes differ from encoding/json\n got: %s\nwant: %s", what, raw, want.Bytes())
	}
}

// withReplica is a replica body with the router's "replica" field
// appended, the way encoding/json would place it: last, before the
// closing brace and the Encoder's newline.
func withReplica(t *testing.T, body []byte, replica string) []byte {
	t.Helper()
	q, err := json.Marshal(replica)
	if err != nil {
		t.Fatal(err)
	}
	trimmed, ok := bytes.CutSuffix(body, []byte("}\n"))
	if !ok {
		t.Fatalf("replica body does not end in an object and a newline: %q", body)
	}
	return append(append(append(trimmed[:len(trimmed):len(trimmed)], `,"replica":`...), q...), "}\n"...)
}

// replayReplica serves one canned /match body, optionally after a delay.
func replayReplica(t *testing.T, body []byte, delay time.Duration) string {
	return fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}).URL
}

func TestRouterWireIdentity(t *testing.T) {
	g := bipartite.RandomER(300, 280, 4, 21)
	gs := wire.GraphSpec{Rows: 300, Cols: 280, Edges: edgesOf(g)}
	inline := wire.MatchRequest{GraphSpec: gs, Algorithm: "twosided", Seed: 5}

	// A real replica body, captured once and replayed by stand-ins below so
	// the relayed bytes can be compared exactly (a live replica's "ms"
	// changes from call to call).
	f := newFleet(t, 3, cluster.Options{HedgeDelay: -1})
	code, direct := do(t, http.MethodPost, f.urls[0]+"/match", inline)
	if code != http.StatusOK {
		t.Fatalf("direct match: status %d: %s", code, direct)
	}

	t.Run("routed", func(t *testing.T) {
		url := replayReplica(t, direct, 0)
		rt := newRouter(t, cluster.New([]string{url}, cluster.Options{HedgeDelay: -1}))
		code, raw := do(t, http.MethodPost, rt+"/match", inline)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, raw)
		}
		if want := withReplica(t, direct, url); !bytes.Equal(raw, want) {
			t.Fatalf("routed answer is not the replica's body plus replica\n got: %s\nwant: %s", raw, want)
		}
		assertEncodingJSON(t, "routed", raw, &wire.MatchResponse{})
	})

	t.Run("hedged", func(t *testing.T) {
		slow := replayReplica(t, direct, 2*time.Second)
		fast := replayReplica(t, direct, 0)
		c := cluster.New([]string{slow, fast}, cluster.Options{MaxRetries: 1, HedgeDelay: 25 * time.Millisecond})
		rt := newRouter(t, c)
		want := withReplica(t, direct, fast)
		// Inline requests spread over the members by seed; some land on
		// the slow primary and are answered by the hedge.
		for seed := uint64(0); seed < 12 || c.Stats().HedgeWins == 0; seed++ {
			if seed == 48 {
				t.Fatal("no request was hedged onto the fast replica")
			}
			req := inline
			req.Seed = seed
			code, raw := do(t, http.MethodPost, rt+"/match", req)
			if code != http.StatusOK {
				t.Fatalf("seed %d: status %d: %s", seed, code, raw)
			}
			if !bytes.Equal(raw, want) {
				t.Fatalf("seed %d: hedged answer differs\n got: %s\nwant: %s", seed, raw, want)
			}
		}
		assertEncodingJSON(t, "hedged", want, &wire.MatchResponse{})
	})

	t.Run("fanout", func(t *testing.T) {
		id := registerVia(t, f.router.URL, gs)
		before := f.client.Stats().FanOuts
		code, raw := do(t, http.MethodPost, f.router.URL+"/match",
			wire.MatchRequest{Graph: id, Algorithm: "twosided", Seed: 9, BestOf: 8})
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, raw)
		}
		if f.client.Stats().FanOuts == before {
			t.Fatal("best_of request did not fan out")
		}
		assertEncodingJSON(t, "fanout", raw, &wire.MatchResponse{})
	})

	t.Run("batch", func(t *testing.T) {
		id := registerVia(t, f.router.URL, gs)
		reqs := []wire.MatchRequest{
			{Graph: id, Algorithm: "twosided", Seed: 1},
			{Graph: id, Algorithm: "onesided", Seed: 2},
			{Graph: "no-such-graph"},
			inline,
		}
		code, raw := do(t, http.MethodPost, f.router.URL+"/match/batch", map[string]any{"requests": reqs})
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, raw)
		}
		var br wire.BatchResponse
		assertEncodingJSON(t, "batch", raw, &br)
		if len(br.Responses) != len(reqs) || br.Responses[2].Error == "" || br.Responses[0].Replica == "" {
			t.Fatalf("batch answers: %+v", br.Responses)
		}
	})
}

// newRouter serves a router over c for the duration of the test.
func newRouter(t *testing.T, c *cluster.Client) string {
	ts := httptest.NewServer(cluster.NewRouterMux(cluster.NewRouter(c, 8<<20)))
	t.Cleanup(ts.Close)
	return ts.URL
}
