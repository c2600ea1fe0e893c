package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Router is the HTTP front end over a Client: the same wire surface as
// one matchserve replica (graph registry CRUD, /match, /match/batch),
// served by the whole fleet. cmd/matchrouter wraps it behind a listener;
// the cluster integration suite serves it with httptest.
type Router struct {
	c *Client

	// maxBody caps request bodies; 0 = unbounded.
	maxBody int64

	requests atomic.Int64
	errors   atomic.Int64
}

// NewRouter wraps a Client. maxBody caps request bodies in bytes (0 =
// unbounded).
func NewRouter(c *Client, maxBody int64) *Router {
	return &Router{c: c, maxBody: maxBody}
}

// Client returns the routing SDK the router serves.
func (rt *Router) Client() *Client { return rt.c }

// NewRouterMux wires the router's routes.
func NewRouterMux(rt *Router) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /graph", rt.handleGraph)
	mux.HandleFunc("GET /graph/{id}", rt.handleGraphGet)
	mux.HandleFunc("DELETE /graph/{id}", rt.handleGraphDelete)
	mux.HandleFunc("PATCH /graph/{id}", rt.handleGraphPatch)
	mux.HandleFunc("POST /match", rt.handleMatch)
	mux.HandleFunc("POST /match/batch", rt.handleBatch)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /stats", rt.handleStats)
	return mux
}

func (rt *Router) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body := r.Body
	if rt.maxBody > 0 {
		body = http.MaxBytesReader(w, r.Body, rt.maxBody)
	}
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			rt.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		rt.writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func (rt *Router) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("matchrouter: write: %v", err)
	}
}

func (rt *Router) writeError(w http.ResponseWriter, code int, err error) {
	rt.errors.Add(1)
	rt.writeJSON(w, code, map[string]string{"error": err.Error()})
}

// statusOfClientErr maps Client errors to router statuses: no reachable
// replica is the router's own 503 (the fleet equivalent of admission
// back-pressure), an unknown graph 404, a replica's terminal answer keeps
// its status, anything else is a 502 — the router could not get an answer
// out of the fleet.
func statusOfClientErr(err error) int {
	var re *replicaError
	switch {
	case errors.Is(err, ErrNoReplicas):
		return http.StatusServiceUnavailable
	case errors.As(err, &re):
		return re.status
	case strings.Contains(err.Error(), "unknown graph"):
		return http.StatusNotFound
	default:
		return http.StatusBadGateway
	}
}

func (rt *Router) handleGraph(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	var gs wire.GraphSpec
	if !rt.decode(w, r, &gs) {
		return
	}
	id, err := rt.c.RegisterGraph(r.Context(), gs)
	if err != nil {
		rt.writeError(w, statusOfClientErr(err), err)
		return
	}
	rt.writeJSON(w, http.StatusOK, map[string]any{
		"id": id, "rows": gs.Rows, "cols": gs.Cols, "edges": len(gs.Edges),
	})
}

func (rt *Router) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	code, body, err := rt.c.ExportGraph(r.Context(), r.PathValue("id"))
	if err != nil {
		rt.writeError(w, statusOfClientErr(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

func (rt *Router) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	id := r.PathValue("id")
	known, err := rt.c.DeleteGraph(r.Context(), id)
	if !known {
		rt.writeError(w, http.StatusNotFound, fmt.Errorf("unknown graph %q", id))
		return
	}
	if err != nil {
		rt.writeError(w, http.StatusBadGateway, err)
		return
	}
	rt.writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

func (rt *Router) handleGraphPatch(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	body := r.Body
	if rt.maxBody > 0 {
		body = http.MaxBytesReader(w, r.Body, rt.maxBody)
	}
	raw, err := readAllChecked(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			rt.writeError(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		rt.writeError(w, http.StatusBadRequest, err)
		return
	}
	code, reply, err := rt.c.Patch(r.Context(), r.PathValue("id"), raw)
	if err != nil {
		rt.writeError(w, statusOfClientErr(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(reply)
}

func (rt *Router) handleMatch(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	var mr wire.MatchRequest
	if !rt.decode(w, r, &mr) {
		return
	}
	resp, err := rt.c.Match(r.Context(), mr)
	if err != nil {
		rt.writeError(w, statusOfClientErr(err), err)
		return
	}
	if err := wire.WriteMatch(w, http.StatusOK, &resp); err != nil {
		log.Printf("matchrouter: write: %v", err)
	}
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	var env wire.BatchRequest
	if !rt.decode(w, r, &env) {
		return
	}
	start := time.Now()
	br := wire.BatchResponse{Responses: rt.c.MatchBatch(r.Context(), env.Requests)}
	br.Ms = float64(time.Since(start).Microseconds()) / 1000
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err := wire.EncodeBatch(w, &br); err != nil {
		log.Printf("matchrouter: write: %v", err)
	}
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := rt.c.Stats()
	status := "ok"
	code := http.StatusOK
	if st.Healthy == 0 {
		// No backing replica: the router is up but cannot serve, which is
		// what a load balancer in front of several routers needs to see.
		status, code = "degraded", http.StatusServiceUnavailable
	}
	rt.writeJSON(w, code, map[string]any{
		"status":   status,
		"replicas": st.Replicas,
		"healthy":  st.Healthy,
		"levels":   rt.c.Levels(),
	})
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	st := rt.c.Stats()
	rt.writeJSON(w, http.StatusOK, map[string]any{
		"requests":   rt.requests.Load(),
		"errors":     rt.errors.Load(),
		"replicas":   st.Replicas,
		"healthy":    st.Healthy,
		"members":    rt.c.Members(),
		"graphs":     st.Keys,
		"moved":      st.Moved,
		"retries":    st.Retries,
		"hedges":     st.Hedges,
		"hedge_wins": st.HedgeWins,
		"migrations": st.Migrations,
		"failovers":  st.Failovers,
		"fanouts":    st.FanOuts,
	})
}

// readAllChecked reads the whole body, surfacing the MaxBytesReader
// overflow as its typed error.
func readAllChecked(r io.Reader) ([]byte, error) {
	return io.ReadAll(r)
}
