package cluster_test

import (
	"net/http"
	"reflect"
	"testing"

	bipartite "repro"
	"repro/internal/cluster"
	"repro/internal/wire"
)

// TestClusterFanOutBitIdentity is the acceptance gate of the fan-out
// path: a best-of-32 ensemble split across 3 replicas as seed sub-ranges
// and reduced by the router must be bit-identical — winner seed, size,
// mates, provenance — to one process running the full 32-candidate sweep
// with the library directly.
func TestClusterFanOutBitIdentity(t *testing.T) {
	f := newFleet(t, 3, cluster.Options{HedgeDelay: -1})
	g := bipartite.RandomER(400, 380, 4, 11)
	edges := edgesOf(g)
	const K = 32
	const seed = 100

	for _, alg := range []struct {
		wire string
		lib  bipartite.Algorithm
	}{
		{"twosided", bipartite.AlgTwoSided},
		{"onesided", bipartite.AlgOneSided},
		{"karpsipser", bipartite.AlgKarpSipser},
	} {
		t.Run(alg.wire, func(t *testing.T) {
			id := registerVia(t, f.router.URL, wire.GraphSpec{Rows: 400, Cols: 380, Edges: edges})
			code, raw := do(t, http.MethodPost, f.router.URL+"/match",
				wire.MatchRequest{Graph: id, Algorithm: alg.wire, Seed: seed, BestOf: K})
			if code != http.StatusOK {
				t.Fatalf("fanned match: status %d: %s", code, raw)
			}
			var got wire.MatchResponse
			decodeInto(t, raw, &got)

			ref, err := g.Match(bipartite.Spec{Algorithm: alg.lib, Seed: seed, Ensemble: K}, engineOpts())
			if err != nil {
				t.Fatalf("reference sweep: %v", err)
			}
			if got.Size != ref.Matching.Size || got.WinnerSeed != ref.WinnerSeed ||
				got.HeuristicSize != ref.HeuristicSize || got.CandidatesRun != K {
				t.Fatalf("fanned best-of-%d: size=%d winner=%d heuristic=%d candidates=%d; reference size=%d winner=%d heuristic=%d",
					K, got.Size, got.WinnerSeed, got.HeuristicSize, got.CandidatesRun,
					ref.Matching.Size, ref.WinnerSeed, ref.HeuristicSize)
			}
			if !reflect.DeepEqual(got.RowMate, ref.Matching.RowMate) {
				t.Fatalf("fanned best-of-%d: row_mate differs from the single-process sweep", K)
			}
		})
	}

	// The split really happened: the graphs were replicated to every
	// member for the sub-ranges, and the fan-out counter moved.
	if st := f.client.Stats(); st.FanOuts < 3 {
		t.Fatalf("fanouts=%d, want one per algorithm", st.FanOuts)
	}
	for i := range f.urls {
		if n := f.replicaGraphs(i); n == 0 {
			t.Fatalf("replica %d holds no graphs: the ensembles did not fan out", i)
		}
	}
}

// TestClusterFanOutBitIdentityAuction is the weighted half of the gate:
// the auction's best-of-32 over bidding seeds fans out the same way
// (every replica's sub-range finishes from the identical seed-free
// scaling phase), and the reduced winner must carry the exact matched
// weight, winner seed and mates of the single-process ensemble.
func TestClusterFanOutBitIdentityAuction(t *testing.T) {
	f := newFleet(t, 3, cluster.Options{HedgeDelay: -1})
	pattern := bipartite.RandomER(150, 150, 5, 17)
	edges := edgesOf(pattern)
	weights := make([]float64, len(edges))
	for k := range weights {
		weights[k] = 1 + float64((k*2654435761)%1000)/100 // deterministic, strictly positive
	}
	g, err := bipartite.FromWeightedEdges(150, 150, edges, weights)
	if err != nil {
		t.Fatalf("weighted graph: %v", err)
	}
	const K = 32
	const seed = 100

	id := registerVia(t, f.router.URL, wire.GraphSpec{Rows: 150, Cols: 150, Edges: edges, Weights: weights})
	code, raw := do(t, http.MethodPost, f.router.URL+"/match",
		wire.MatchRequest{Graph: id, Algorithm: "auction", Seed: seed, BestOf: K})
	if code != http.StatusOK {
		t.Fatalf("fanned auction: status %d: %s", code, raw)
	}
	var got wire.MatchResponse
	decodeInto(t, raw, &got)

	ref, err := g.Match(bipartite.Spec{Algorithm: bipartite.AlgAuction, Seed: seed, Ensemble: K}, engineOpts())
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	if got.MatchedWeight != ref.MatchedWeight || got.WinnerSeed != ref.WinnerSeed ||
		got.Size != ref.Matching.Size || got.CandidatesRun != K || got.Epsilon != ref.Epsilon {
		t.Fatalf("fanned auction best-of-%d: weight=%v winner=%d size=%d candidates=%d eps=%v; reference weight=%v winner=%d size=%d eps=%v",
			K, got.MatchedWeight, got.WinnerSeed, got.Size, got.CandidatesRun, got.Epsilon,
			ref.MatchedWeight, ref.WinnerSeed, ref.Matching.Size, ref.Epsilon)
	}
	if !reflect.DeepEqual(got.RowMate, ref.Matching.RowMate) {
		t.Fatalf("fanned auction: row_mate differs from the single-process sweep")
	}
}
