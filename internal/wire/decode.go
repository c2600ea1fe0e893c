package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
)

// The decoder parses the canonical layout — the one the encoder writes,
// with whitespace allowed between tokens and fields in any order — in
// place: row_mate is scanned digit by digit straight into its []int32.
// Anything outside that layout goes to encoding/json, whole document, from
// a zero value: unknown keys, keys in another case or with escapes (which
// encoding/json matches case-insensitively), repeated keys (which it
// merges into the earlier value), null for anything but row_mate and
// responses, nested values, integers written with a fraction or exponent,
// numbers out of their field's range, and malformed JSON. So decodeMatch
// and decodeBatch return exactly what json.Unmarshal returns, value and
// error — FuzzDecodeMatch checks that on arbitrary input.

// ReadMatch reads a /match response body to EOF and decodes it: the value
// and error json.Unmarshal gives for the same bytes on a zero
// MatchResponse (or the read error).
func ReadMatch(r io.Reader) (MatchResponse, error) { return read(r, decodeMatch) }

// ReadBatch is ReadMatch for a /match/batch response envelope.
func ReadBatch(r io.Reader) (BatchResponse, error) { return read(r, decodeBatch) }

func decodeMatch(data []byte) (MatchResponse, error) {
	var mr MatchResponse
	d := decoder{data: data}
	if d.match(&mr) && d.end() {
		return mr, nil
	}
	mr = MatchResponse{}
	err := json.Unmarshal(data, &mr)
	return mr, err
}

func decodeBatch(data []byte) (BatchResponse, error) {
	var br BatchResponse
	d := decoder{data: data}
	if d.batch(&br) && d.end() {
		return br, nil
	}
	br = BatchResponse{}
	err := json.Unmarshal(data, &br)
	return br, err
}

// bodies recycles read buffers. Decoded values never alias the buffer:
// strings and mates are copied out.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooled keeps one outsized batch body from pinning its buffer.
const maxPooled = 1 << 20

func read[T any](r io.Reader, decode func([]byte) (T, error)) (T, error) {
	buf := bodies.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooled {
			bodies.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(r); err != nil {
		var zero T
		return zero, err
	}
	return decode(buf.Bytes())
}

// Field bits for the repeated-key check.
const (
	fSize = 1 << iota
	fRows
	fCols
	fRowMate
	fWinnerSeed
	fCandidatesRun
	fHeuristicSize
	fRefined
	fRefinedWith
	fMatchedWeight
	fEpsilon
	fRounds
	fDegraded
	fMs
	fError
	fReplica
)

// decoder is the in-place parser. Every method reports false, leaving
// pos wherever it stopped, on input outside the canonical layout; the
// entry points then hand the whole document to encoding/json.
type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) ws() { d.pos = skipSpace(d.data, d.pos) }

// consume skips whitespace and then c, if c comes next.
func (d *decoder) consume(c byte) bool {
	d.ws()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// literal skips whitespace and then lit, if lit comes next.
func (d *decoder) literal(lit string) bool {
	d.ws()
	if bytes.HasPrefix(d.data[d.pos:], []byte(lit)) {
		d.pos += len(lit)
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *decoder) end() bool {
	d.ws()
	return d.pos == len(d.data)
}

// key reads an object key and its colon. Only keys without escapes come
// back; the caller matches them against the exact field names.
func (d *decoder) key() ([]byte, bool) {
	d.ws()
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return nil, false
	}
	start := d.pos + 1
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i], d.consume(':')
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// object walks the members of one object, calling member for each key
// with its field bit already checked against the ones seen so far. An
// empty object is accepted.
func (d *decoder) object(member func(key []byte) (bit uint32, ok bool)) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	var seen uint32
	for {
		k, ok := d.key()
		if !ok {
			return false
		}
		bit, ok := member(k)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if d.consume(',') {
			continue
		}
		return d.consume('}')
	}
}

func (d *decoder) batch(br *BatchResponse) bool {
	return d.object(func(k []byte) (uint32, bool) {
		switch string(k) {
		case "ms":
			return 1, d.float(&br.Ms)
		case "responses":
			return 2, d.responses(&br.Responses)
		}
		return 0, false
	})
}

func (d *decoder) responses(p *[]MatchResponse) bool {
	if d.literal("null") {
		*p = nil
		return true
	}
	if !d.consume('[') {
		return false
	}
	out := []MatchResponse{} // "[]" decodes to empty, not nil
	if d.consume(']') {
		*p = out
		return true
	}
	for {
		out = append(out, MatchResponse{})
		if !d.match(&out[len(out)-1]) {
			return false
		}
		if d.consume(',') {
			continue
		}
		*p = out
		return d.consume(']')
	}
}

func (d *decoder) match(mr *MatchResponse) bool {
	return d.object(func(k []byte) (uint32, bool) {
		switch string(k) {
		case "size":
			return fSize, d.int(&mr.Size)
		case "rows":
			return fRows, d.int(&mr.Rows)
		case "cols":
			return fCols, d.int(&mr.Cols)
		case "row_mate":
			return fRowMate, d.mates(&mr.RowMate, mr.Rows)
		case "winner_seed":
			return fWinnerSeed, d.uint64(&mr.WinnerSeed)
		case "candidates_run":
			return fCandidatesRun, d.int(&mr.CandidatesRun)
		case "heuristic_size":
			return fHeuristicSize, d.int(&mr.HeuristicSize)
		case "refined":
			return fRefined, d.bool(&mr.Refined)
		case "refined_with":
			return fRefinedWith, d.string(&mr.RefinedWith)
		case "matched_weight":
			return fMatchedWeight, d.float(&mr.MatchedWeight)
		case "epsilon":
			return fEpsilon, d.float(&mr.Epsilon)
		case "rounds":
			return fRounds, d.int(&mr.Rounds)
		case "degraded":
			return fDegraded, d.string(&mr.Degraded)
		case "ms":
			return fMs, d.float(&mr.Ms)
		case "error":
			return fError, d.string(&mr.Error)
		case "replica":
			return fReplica, d.string(&mr.Replica)
		}
		return 0, false
	})
}

// mates parses a row_mate array into a fresh slice. rows, when already
// decoded, sizes the slice up front (capped by what the remaining bytes
// could hold, so a lying "rows" cannot force a large allocation). The
// element loop works on locals: it is the whole cost of a large body.
func (d *decoder) mates(p *[]int32, rows int) bool {
	if d.literal("null") {
		*p = nil
		return true
	}
	if !d.consume('[') {
		return false
	}
	if most := (len(d.data)-d.pos)/2 + 1; rows > most || rows < 0 {
		rows = most
	}
	out := make([]int32, 0, rows) // "[]" decodes to empty, not nil
	if d.consume(']') {
		*p = out
		return true
	}
	data, i := d.data, d.pos
	for {
		v, next, ok := int32At(data, skipSpace(data, i))
		if !ok {
			return false
		}
		out = append(out, v)
		i = skipSpace(data, next)
		if i < len(data) && data[i] == ',' {
			i++
			continue
		}
		d.pos = i
		*p = out
		return d.consume(']')
	}
}

func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// int32At parses one canonical integer in int32 range starting at
// data[i], returning the index after it. Leading zeros, fractions,
// exponents and out-of-range values are left to encoding/json ("-0" is
// canonical: encoding/json reads it as 0 too).
func int32At(data []byte, i int) (int32, int, bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for ; i < len(data); i++ {
		c := data[i] - '0' // wraps for bytes below '0'
		if c > 9 {
			break
		}
		if v = v*10 + int64(c); v > math.MaxInt32+1 {
			return 0, 0, false
		}
	}
	if i == start || (i-start > 1 && data[start] == '0') {
		return 0, 0, false
	}
	if i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E') {
		return 0, 0, false
	}
	if neg {
		v = -v
	}
	if v > math.MaxInt32 || v < math.MinInt32 {
		return 0, 0, false
	}
	return int32(v), i, true
}

// number returns the next JSON number token, checked against the JSON
// number grammar (strconv alone would also take "+1", "0x10", "Inf"),
// and whether it is an integer: no fraction, no exponent.
func (d *decoder) number() (tok []byte, integer, ok bool) {
	d.ws()
	i, n := d.pos, len(d.data)
	digits := func() int {
		j := i
		for i < n && d.data[i] >= '0' && d.data[i] <= '9' {
			i++
		}
		return i - j
	}
	if i < n && d.data[i] == '-' {
		i++
	}
	if i < n && d.data[i] == '0' {
		i++
	} else if digits() == 0 {
		return nil, false, false
	}
	integer = true
	if i < n && d.data[i] == '.' {
		integer = false
		i++
		if digits() == 0 {
			return nil, false, false
		}
	}
	if i < n && (d.data[i] == 'e' || d.data[i] == 'E') {
		integer = false
		i++
		if i < n && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if digits() == 0 {
			return nil, false, false
		}
	}
	tok = d.data[d.pos:i]
	d.pos = i
	return tok, integer, true
}

func (d *decoder) int(p *int) bool {
	tok, integer, ok := d.number()
	if !ok || !integer {
		return false
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	*p = int(v)
	return err == nil
}

func (d *decoder) uint64(p *uint64) bool {
	tok, integer, ok := d.number()
	if !ok || !integer || tok[0] == '-' {
		return false
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	*p = v
	return err == nil
}

// float parses like encoding/json: strconv.ParseFloat on the token.
func (d *decoder) float(p *float64) bool {
	tok, _, ok := d.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	*p = v
	return err == nil
}

func (d *decoder) bool(p *bool) bool {
	switch {
	case d.literal("true"):
		*p = true
	case d.literal("false"):
		*p = false
	default:
		return false
	}
	return true
}

// string reads a string value. A plain ASCII string is copied as is; one
// with escapes or non-ASCII bytes is unquoted by encoding/json itself,
// which also replaces invalid UTF-8 the way a whole-document decode does.
func (d *decoder) string(p *string) bool {
	d.ws()
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return false
	}
	plain := true
	for i := d.pos + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			tok := d.data[d.pos : i+1]
			d.pos = i + 1
			if plain {
				*p = string(tok[1 : len(tok)-1])
				return true
			}
			return json.Unmarshal(tok, p) == nil
		case c == '\\':
			plain = false
			i++ // the escaped byte cannot end the string
		case c < 0x20:
			return false
		case c >= 0x80:
			plain = false
		}
	}
	return false
}
