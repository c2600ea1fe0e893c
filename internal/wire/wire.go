// Package wire is the /match wire format, shared by the matchserve
// replicas (internal/servehttp) and the cluster router (internal/cluster):
// the request types (GraphSpec, MatchRequest and the BatchRequest
// envelope), the response types (MatchResponse and BatchResponse), a
// streaming response encoder and a direct response decoder. Each shape is
// declared once, so a field the replica accepts is a field the router
// forwards.
//
// Requests go through encoding/json on both sides: the replica decodes
// and validates them (internal/servehttp), the router decodes them and
// re-encodes them for the replica. Responses have a codec of their own,
// and both of its directions are exact stand-ins for encoding/json. The
// encoder writes the bytes json.NewEncoder(w).Encode writes for the same
// value (field order, omitempty, string escaping, float formatting, the
// trailing newline), and the decoder returns what json.Unmarshal returns
// for the same bytes — so a client, a replica and the router can each use
// either side without the other noticing. The point of the response codec
// is the row_mate array, one int per graph row and the bulk of every body:
// encoding/json builds the whole document in memory before the first byte
// is written and decodes the array by reflection, element by element,
// while this package streams it out through one fixed-size buffer and
// parses it in place. The encoder formats the entries straight into that
// buffer, so an answer costs the same few allocations however many rows
// it has: none per row_mate entry (TestEncodeMatchSteadyStateAllocs).
package wire

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
)

// MatchResponse is one served matching. The provenance fields surface how
// the engine arrived at the matching: which ensemble seed won, how many
// candidates actually ran (a target or the ensemble-aware refinement may
// stop the sweep early), the winner's pre-refinement size, and whether a
// refinement stage ran at all.
type MatchResponse struct {
	Size    int     `json:"size"`
	Rows    int     `json:"rows"`
	Cols    int     `json:"cols"`
	RowMate []int32 `json:"row_mate"`
	// Provenance: always present on successful responses (zero-valued on
	// errors, alongside the zero size/rows/cols).
	WinnerSeed    uint64 `json:"winner_seed"`
	CandidatesRun int    `json:"candidates_run"`
	HeuristicSize int    `json:"heuristic_size"`
	Refined       bool   `json:"refined"`
	// RefinedWith names the refinement engine that actually ran ("exact",
	// "pushrelabel" or "graft" — "refine":"exact" auto-selects the parallel
	// graft engine on large instances). Absent when no refinement ran.
	RefinedWith string `json:"refined_with,omitempty"`
	// Weighted provenance, present only on "algorithm":"auction" responses:
	// the matched weight the auction maximized, the resolved epsilon of its
	// (1−ε)·optimal guarantee, and the bidding rounds it ran.
	MatchedWeight float64 `json:"matched_weight,omitempty"`
	Epsilon       float64 `json:"epsilon,omitempty"`
	Rounds        int     `json:"rounds,omitempty"`
	// Degraded, when present, records the self-protection downgrades the
	// server applied before running the Spec (e.g.
	// "refine:exact->none,best_of:8->2"): the matching still carries the
	// paper's heuristic quality bound, but not whatever the full Spec
	// guaranteed. Absent when the Spec ran exactly as requested.
	Degraded string `json:"degraded,omitempty"`
	// Ms is the wall-clock of a single /match; batch responses omit it
	// and report one batch-wide "ms" in the envelope instead (the
	// requests ran concurrently, so no per-request wall-clock exists).
	Ms    float64 `json:"ms,omitempty"`
	Error string  `json:"error,omitempty"`
	// Replica is the router's provenance addition: the member that
	// produced the matching (for a fanned-out ensemble, the one whose seed
	// sub-range won). Replicas never set it.
	Replica string `json:"replica,omitempty"`
}

// BatchResponse is the /match/batch response envelope. "ms" leads, as it
// did when the envelope was a map (encoding/json sorts map keys).
type BatchResponse struct {
	Ms        float64         `json:"ms"`
	Responses []MatchResponse `json:"responses"`
}

// WriteMatch writes one /match answer: the JSON Content-Type, the status
// code, then the streamed body. The returned error is the body write's;
// the status line is already out by then, so callers can only log it.
func WriteMatch(w http.ResponseWriter, code int, mr *MatchResponse) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	return encodeMatch(w, mr)
}

// encodeMatch streams mr to w: the bytes json.NewEncoder(w).Encode(mr)
// writes, trailing newline included.
func encodeMatch(w io.Writer, mr *MatchResponse) error {
	e := &encoder{w: bufio.NewWriter(w)}
	e.match(mr)
	e.raw("\n")
	return e.flush()
}

// EncodeBatch streams a /match/batch envelope to w: the bytes
// json.NewEncoder(w).Encode(br) writes. The envelope's "ms" is known
// before anything is written — the batch has run by then — so only the
// responses stream.
func EncodeBatch(w io.Writer, br *BatchResponse) error {
	e := &encoder{w: bufio.NewWriter(w)}
	e.raw(`{"ms":`)
	e.value(br.Ms)
	e.raw(`,"responses":`)
	if br.Responses == nil {
		e.raw("null")
	} else {
		e.raw("[")
		for i := range br.Responses {
			if i > 0 {
				e.raw(",")
			}
			e.match(&br.Responses[i])
		}
		e.raw("]")
	}
	e.raw("}\n")
	return e.flush()
}

// encoder appends JSON tokens to one buffered writer, latching the first
// write error (later writes become no-ops, the caller reports it once).
type encoder struct {
	w   *bufio.Writer
	err error
}

func (e *encoder) flush() error {
	if e.err == nil {
		e.err = e.w.Flush()
	}
	return e.err
}

func (e *encoder) raw(s string) {
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

// room returns the writer's free buffer, flushed first if fewer than n
// bytes are free, for appending at most n bytes and handing them straight
// back to write. Formatting into it allocates nothing: the bytes are
// appended in the bufio.Writer's own buffer, where write finds them
// already in place.
func (e *encoder) room(n int) []byte {
	if e.err == nil && e.w.Available() < n {
		e.err = e.w.Flush()
	}
	return e.w.AvailableBuffer()
}

func (e *encoder) write(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

// maxInt is the longest integer JSON token the encoder writes: 20 bytes
// holds -9223372036854775808 and 18446744073709551615 alike.
const maxInt = 20

func (e *encoder) int(v int64) {
	e.write(strconv.AppendInt(e.room(maxInt), v, 10))
}

func (e *encoder) uint(v uint64) {
	e.write(strconv.AppendUint(e.room(maxInt), v, 10))
}

func (e *encoder) bool(v bool) {
	if v {
		e.raw("true")
	} else {
		e.raw("false")
	}
}

// value falls back to encoding/json for the scalar types whose encoding
// has nontrivial rules — strings (escaping, HTML-safe by default) and
// floats (shortest-representation with exponent-range fixups). These are
// a few bytes per response; the streaming win is the row_mate array,
// which never comes through here.
func (e *encoder) value(v any) {
	if e.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		e.err = err
		return
	}
	e.write(b)
}

// maxMate is the longest row_mate entry: a comma and -2147483648.
const maxMate = 12

// mates streams a row_mate array without materializing it as JSON: nil
// encodes as null (the error-response shape), like encoding/json. Entries
// are formatted straight into the writer's free buffer, as many per write
// as fit, so the array costs no allocation however long it is.
func (e *encoder) mates(v []int32) {
	if v == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	b := e.room(maxMate)
	for i, m := range v {
		if cap(b)-len(b) < maxMate {
			e.write(b)
			if b = e.room(maxMate); e.err != nil {
				return
			}
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(m), 10)
	}
	e.write(b)
	e.raw("]")
}

// match writes one response object, field for field the shape
// encoding/json gives MatchResponse.
func (e *encoder) match(mr *MatchResponse) {
	e.raw(`{"size":`)
	e.int(int64(mr.Size))
	e.raw(`,"rows":`)
	e.int(int64(mr.Rows))
	e.raw(`,"cols":`)
	e.int(int64(mr.Cols))
	e.raw(`,"row_mate":`)
	e.mates(mr.RowMate)
	e.raw(`,"winner_seed":`)
	e.uint(mr.WinnerSeed)
	e.raw(`,"candidates_run":`)
	e.int(int64(mr.CandidatesRun))
	e.raw(`,"heuristic_size":`)
	e.int(int64(mr.HeuristicSize))
	e.raw(`,"refined":`)
	e.bool(mr.Refined)
	if mr.RefinedWith != "" {
		e.raw(`,"refined_with":`)
		e.value(mr.RefinedWith)
	}
	if mr.MatchedWeight != 0 {
		e.raw(`,"matched_weight":`)
		e.value(mr.MatchedWeight)
	}
	if mr.Epsilon != 0 {
		e.raw(`,"epsilon":`)
		e.value(mr.Epsilon)
	}
	if mr.Rounds != 0 {
		e.raw(`,"rounds":`)
		e.int(int64(mr.Rounds))
	}
	if mr.Degraded != "" {
		e.raw(`,"degraded":`)
		e.value(mr.Degraded)
	}
	if mr.Ms != 0 {
		e.raw(`,"ms":`)
		e.value(mr.Ms)
	}
	if mr.Error != "" {
		e.raw(`,"error":`)
		e.value(mr.Error)
	}
	if mr.Replica != "" {
		e.raw(`,"replica":`)
		e.value(mr.Replica)
	}
	e.raw("}")
}
