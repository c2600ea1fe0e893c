package wire

// GraphSpec is an inline graph on the wire: the POST /graph registration
// body, the GET /graph/{id} export, and the inline form of a /match
// request. Weights, when present, carry one strictly positive finite
// value per edge; the graph is then weighted and "algorithm":"auction"
// maximizes the matched weight on it. ID, on registration, names the
// graph instead of a server-generated id (the upsert form the router uses
// to migrate and replicate graphs under stable ids).
type GraphSpec struct {
	ID      string    `json:"id,omitempty"`
	Rows    int       `json:"rows"`
	Cols    int       `json:"cols"`
	Edges   [][2]int  `json:"edges"`
	Weights []float64 `json:"weights,omitempty"`
}

// MatchRequest is one /match body: a registered graph id or an inline
// graph, plus the declarative Spec fields and an optional per-request
// deadline and admission priority.
type MatchRequest struct {
	GraphSpec
	Graph string `json:"graph,omitempty"`
	// LegacyOp is the pre-Spec "op" selector, which was removed. It is
	// decoded only so that a body still carrying it is refused (a 400
	// naming "algorithm") instead of silently running the default
	// algorithm; the router forwards it to the replica that refuses it.
	LegacyOp  *string `json:"op,omitempty"`
	Algorithm string  `json:"algorithm,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
	Refine    string  `json:"refine,omitempty"`
	BestOf    int     `json:"best_of,omitempty"`
	Target    float64 `json:"target,omitempty"`
	// SeedOffset/SeedCount restrict a best_of ensemble to a sub-range of
	// its seed interval — the router's fan-out primitive (see
	// Spec.SeedOffset in the root package).
	SeedOffset int `json:"seed_offset,omitempty"`
	SeedCount  int `json:"seed_count,omitempty"`
	// Epsilon is the auction's relative slack: matched weight within
	// (1−ε)·optimal. 0 means the library default; only valid with
	// "algorithm":"auction".
	Epsilon   float64 `json:"epsilon,omitempty"`
	TimeoutMs int64   `json:"timeout_ms,omitempty"`
	// Priority ranks the request for admission under load: "low" is shed
	// first when the replica's watchdog reports the process hot, "high"
	// last; "" means "normal".
	Priority string `json:"priority,omitempty"`
}

// BatchRequest is the /match/batch request envelope; the response
// envelope is BatchResponse.
type BatchRequest struct {
	Requests []MatchRequest `json:"requests"`
}
