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

// GraphSpec is the registration wire shape shared with the replicas'
// POST /graph and GET /graph/{id}: an edge list plus optional weights,
// optionally under a caller-chosen id (the upsert form the Client uses to
// migrate and replicate graphs under stable ids).
type GraphSpec struct {
	ID      string    `json:"id,omitempty"`
	Rows    int       `json:"rows"`
	Cols    int       `json:"cols"`
	Edges   [][2]int  `json:"edges"`
	Weights []float64 `json:"weights,omitempty"`
}

// MatchRequest mirrors the replicas' /match body: a registered graph id
// or an inline graph, plus the declarative Spec fields on the wire.
type MatchRequest struct {
	GraphSpec
	Graph      string  `json:"graph,omitempty"`
	Op         string  `json:"op,omitempty"`
	Algorithm  string  `json:"algorithm,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	Refine     string  `json:"refine,omitempty"`
	BestOf     int     `json:"best_of,omitempty"`
	Target     float64 `json:"target,omitempty"`
	Sequential bool    `json:"sequential,omitempty"`
	SeedOffset int     `json:"seed_offset,omitempty"`
	SeedCount  int     `json:"seed_count,omitempty"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	TimeoutMs  int64   `json:"timeout_ms,omitempty"`
	Priority   string  `json:"priority,omitempty"`
}

// fanEligible reports whether the request is a full-range ensemble the
// Client may split into seed sub-ranges: early-stopping machinery
// (refinement, a target) consumes seeds serially and cannot be split —
// except under the auction, whose ensembles never stop early but which
// rejects refine/target anyway, so the one rule covers both.
func (mr *MatchRequest) fanEligible() bool {
	return mr.BestOf > 1 && mr.SeedCount == 0 && mr.SeedOffset == 0 &&
		(mr.Refine == "" || mr.Refine == "none") && mr.Target == 0
}

// weighted reports whether the winner objective is matched weight (the
// auction) rather than cardinality.
func (mr *MatchRequest) weighted() bool {
	return mr.Algorithm == "auction" || mr.Op == "auction"
}

// batchRequestEnvelope is the /match/batch request envelope; the
// response envelope is wire.BatchResponse.
type batchRequestEnvelope struct {
	Requests []MatchRequest `json:"requests"`
}

// healthzReply is the replicas' GET /healthz body.
type healthzReply struct {
	Status string `json:"status"`
	Level  string `json:"level"`
	Graphs int    `json:"graphs"`
}
