package servehttp

import (
	"compress/gzip"
	"io"
	"log"
	"net/http"

	"repro/internal/wire"
)

// This file is the writer side of the serving loop. The match-response
// wire format itself — the streaming encoder, byte-compatible with
// encoding/json — lives in internal/wire, shared with the cluster router;
// what stays here is the HTTP around it: status, logging and the batch
// envelope's gzip negotiation.

// writeMatchStream streams one /match response. The trailing newline
// matches json.Encoder, which writeJSON used here before.
func writeMatchStream(w http.ResponseWriter, code int, mr *wire.MatchResponse) {
	if err := wire.WriteMatch(w, code, mr); err != nil {
		log.Printf("matchserve: write: %v", err)
	}
}

// writeBatchStream streams a /match/batch envelope, honoring the client's
// Accept-Encoding: batch envelopes (thousands of row_mate entries of
// repetitive JSON) compress an order of magnitude, so gzip is offered
// where the payloads are large. The gzip writer slots between the
// encoder's buffer and the socket, so compression composes with
// streaming — neither path ever holds the whole document.
func writeBatchStream(w http.ResponseWriter, r *http.Request, code int, out []wire.MatchResponse, msVal float64) {
	w.Header().Set("Content-Type", "application/json")
	var sink io.Writer = w
	var zw *gzip.Writer
	if acceptsGzip(r.Header.Get("Accept-Encoding")) {
		w.Header().Set("Content-Encoding", "gzip")
		zw = gzip.NewWriter(w)
		sink = zw
	}
	w.WriteHeader(code)
	if err := wire.EncodeBatch(sink, &wire.BatchResponse{Ms: msVal, Responses: out}); err != nil {
		log.Printf("matchserve: write: %v", err)
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			log.Printf("matchserve: gzip close: %v", err)
		}
	}
}
