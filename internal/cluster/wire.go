// Package cluster is the client side of cluster-scale serving: a
// consistent-hash routing SDK (Client) plus the thin HTTP front end
// (Router, NewMux) that cmd/matchrouter wraps. A fleet of matchserve
// replicas, each running the internal/servehttp handler, is sharded by
// graph id on an internal/ring bounded-load ring; the Client places every
// registered graph on its ring owner, routes /match, /match/batch and
// PATCH traffic there, and repairs the placement when membership changes
// — migrating graphs to their new owners lazily, via the replicas' GET
// /graph/{id} export, the first time a request needs them.
//
// The Client is defensive the way the replicas are: retryable rejections
// (503 admission/shedding, 429 rate or deadline admission) are retried
// with exponential backoff plus jitter, honoring the Retry-After the
// replica attached; replicas that stop answering are passively marked
// down (and actively re-probed via /healthz), their keys deterministically
// rebalanced onto the survivors; and slow single matches are hedged — a
// second identical request fired at another replica holding the graph
// after a p99-derived delay, first answer wins, which is safe because
// /match is a pure function of (graph, spec).
//
// Ensemble fan-out is the throughput half: a best-of-K request splits
// into disjoint seed sub-ranges (Spec.SeedOffset/SeedCount) across the
// healthy replicas, each replica sweeps its slice against its own shared
// scaling, and the Client reduces the sub-range winners with the
// library's own strict-improvement/smallest-seed rule — so the reduced
// winner, mates and provenance are bit-identical to one replica (or one
// process) running the full sweep.
package cluster

import "repro/internal/wire"

// fanEligible reports whether the request is a full-range ensemble the
// Client may split into seed sub-ranges: early-stopping machinery
// (refinement, a target) consumes seeds serially and cannot be split —
// except under the auction, whose ensembles never stop early but which
// rejects refine/target anyway, so the one rule covers both.
func fanEligible(mr *wire.MatchRequest) bool {
	return mr.BestOf > 1 && mr.SeedCount == 0 && mr.SeedOffset == 0 &&
		(mr.Refine == "" || mr.Refine == "none") && mr.Target == 0
}

// healthzReply is the replicas' GET /healthz body.
type healthzReply struct {
	Status string `json:"status"`
	Level  string `json:"level"`
	Graphs int    `json:"graphs"`
}
