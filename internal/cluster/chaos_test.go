package cluster_test

import (
	"context"
	"testing"
	"time"

	bipartite "repro"
	"repro/internal/cluster"
	"repro/internal/wire"
)

// TestClusterChaosReplicaKill is the chaos gate: a replica is killed with
// a batch in flight on it, and not one client request may fail — the
// sub-batch transport failure must fail over entry by entry onto the
// survivors, migrating the dead replica's graph from the retained
// registration (its sole holder just died). Afterwards the ring must
// converge on the two survivors and keep serving, fan-out included.
func TestClusterChaosReplicaKill(t *testing.T) {
	f := newFleet(t, 3, cluster.Options{HedgeDelay: -1, MaxRetries: 4, RetryBase: 2 * time.Millisecond})
	ctx := context.Background()

	// A graph big enough that a 32-entry batch at Workers:1 outlives the
	// kill delay below; if the machine races through it anyway, the
	// deterministic post-kill phases still exercise the failover path.
	g := bipartite.RandomER(2500, 2500, 6, 3)
	edges := edgesOf(g)
	id, err := f.client.RegisterGraph(ctx, wire.GraphSpec{Rows: 2500, Cols: 2500, Edges: edges})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	victim := f.client.OwnerOf(id)
	base := f.client.Stats()

	const B = 32
	reqs := make([]wire.MatchRequest, B)
	for i := range reqs {
		reqs[i] = wire.MatchRequest{Graph: id, Algorithm: "twosided", Seed: uint64(i + 1)}
	}
	done := make(chan []wire.MatchResponse, 1)
	go func() { done <- f.client.MatchBatch(ctx, reqs) }()
	time.Sleep(30 * time.Millisecond)
	f.kill(f.indexOf(victim))
	out := <-done

	// The zero-failure gate: every in-flight request completed, in order,
	// despite its serving replica dying under it.
	if len(out) != B {
		t.Fatalf("batch: %d responses for %d requests", len(out), B)
	}
	for i, r := range out {
		if r.Error != "" {
			t.Fatalf("entry %d failed during the kill: %s", i, r.Error)
		}
		if r.Size <= 0 || r.Rows != 2500 || r.WinnerSeed != uint64(i+1) {
			t.Fatalf("entry %d: size=%d rows=%d winner=%d (want winner %d)", i, r.Size, r.Rows, r.WinnerSeed, i+1)
		}
	}

	// Deterministic failover: the victim may still be a ring member (no
	// probe has run), so a fresh match must hit it, mark it down, migrate
	// the graph onto the new owner and answer from there.
	resp, err := f.client.Match(ctx, wire.MatchRequest{Graph: id, Algorithm: "twosided", Seed: 99})
	if err != nil {
		t.Fatalf("match after kill: %v", err)
	}
	if resp.Size <= 0 || resp.Replica == victim {
		t.Fatalf("match after kill: size=%d replica=%s (victim %s)", resp.Size, resp.Replica, victim)
	}
	st := f.client.Stats()
	if st.Failovers == base.Failovers {
		t.Fatalf("no failover recorded across the kill")
	}
	if st.Migrations == base.Migrations {
		t.Fatalf("the victim's graph was never migrated to a survivor")
	}

	// The ring converges on the survivors.
	if healthy := f.client.Probe(ctx); healthy != 2 {
		t.Fatalf("probe after kill: %d healthy, want 2", healthy)
	}
	if members := f.client.Members(); len(members) != 2 {
		t.Fatalf("members after probe: %v", members)
	}
	if owner := f.client.OwnerOf(id); owner == "" || owner == victim {
		t.Fatalf("graph owned by %q after convergence", owner)
	}

	// The degraded fleet still fans out, and still bit-identically.
	got, err := f.client.Match(ctx, wire.MatchRequest{Graph: id, Algorithm: "twosided", Seed: 5, BestOf: 8})
	if err != nil {
		t.Fatalf("fanned match on degraded fleet: %v", err)
	}
	ref, err := g.Match(bipartite.Spec{Algorithm: bipartite.AlgTwoSided, Seed: 5, Ensemble: 8}, engineOpts())
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	if got.Size != ref.Matching.Size || got.WinnerSeed != ref.WinnerSeed || got.CandidatesRun != 8 {
		t.Fatalf("degraded fan-out: size=%d winner=%d candidates=%d; reference size=%d winner=%d",
			got.Size, got.WinnerSeed, got.CandidatesRun, ref.Matching.Size, ref.WinnerSeed)
	}

	// New registrations keep working on the survivors.
	id2, err := f.client.RegisterGraph(ctx, wire.GraphSpec{Rows: 40, Cols: 40, Edges: [][2]int{{0, 0}, {1, 1}, {2, 2}}})
	if err != nil {
		t.Fatalf("register after kill: %v", err)
	}
	if resp, err := f.client.Match(ctx, wire.MatchRequest{Graph: id2, Algorithm: "twosided"}); err != nil || resp.Size != 3 {
		t.Fatalf("match on post-kill registration: size=%d err=%v", resp.Size, err)
	}
}
