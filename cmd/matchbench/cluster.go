package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	bipartite "repro"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/servehttp"
	"repro/internal/wire"
)

// clusterN sizes the cluster tier's instance per scale. The regime is the
// same as serve: small graphs where dispatch (here: HTTP + routing)
// rivals the kernels.
func clusterN(scale string) int {
	switch scale {
	case "tiny":
		return 2000
	case "paper":
		return 20000
	default:
		return 6000
	}
}

// miniFleet is a bench-local fleet of in-process matchserve replicas,
// each at Workers: 1 — the one-core-per-replica model under which the
// fan-out split's win is the thing being measured rather than the
// process-local pool's.
type miniFleet struct {
	servers  []*httptest.Server
	handlers []*servehttp.Handler
	pools    []*bipartite.Pool
	urls     []string
}

func bootFleet(n int, seed uint64) *miniFleet {
	f := &miniFleet{}
	for i := 0; i < n; i++ {
		// Each replica gets its own width-1 pool: real replicas are separate
		// processes, so sharing the process-default pool across the
		// in-process stand-ins would serialize exactly the parallelism the
		// fan-out tier measures.
		pool := bipartite.NewPool(1)
		srv := bipartite.NewServerConfig(
			&bipartite.Options{ScalingIterations: 5, Workers: 1, Seed: seed, Pool: pool},
			bipartite.ServerConfig{MaxBatch: 64})
		h := servehttp.NewHandler(srv, servehttp.Config{MaxGraphs: 16, MaxBody: 64 << 20})
		ts := httptest.NewServer(servehttp.NewMux(h))
		f.servers = append(f.servers, ts)
		f.handlers = append(f.handlers, h)
		f.pools = append(f.pools, pool)
		f.urls = append(f.urls, ts.URL)
	}
	return f
}

func (f *miniFleet) close() {
	for i, ts := range f.servers {
		ts.Close()
		f.handlers[i].Close()
		f.pools[i].Close()
	}
}

// postMatch sends one wire match request and returns the decoded size.
func postMatch(url string, mr wire.MatchRequest) int {
	body, err := json.Marshal(&mr)
	if err != nil {
		panic(err)
	}
	resp, err := http.Post(url+"/match", "application/json", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var out wire.MatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		panic(err)
	}
	if resp.StatusCode != http.StatusOK || out.Error != "" {
		panic(fmt.Sprintf("cluster bench: match status %d error %q", resp.StatusCode, out.Error))
	}
	return out.Size
}

func registerOn(url string, gs wire.GraphSpec) string {
	body, err := json.Marshal(&gs)
	if err != nil {
		panic(err)
	}
	resp, err := http.Post(url+"/graph", "application/json", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var reply struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		panic(err)
	}
	if resp.StatusCode != http.StatusOK || reply.ID == "" {
		panic(fmt.Sprintf("cluster bench: register status %d error %q", resp.StatusCode, reply.Error))
	}
	return reply.ID
}

// clusterBench measures cluster-scale serving end to end over real wire
// hops: routed single matches through the consistent-hash router over 3
// replicas versus the same requests straight at one replica, and a
// best-of-32 ensemble fanned out across 4 replicas as seed sub-ranges
// versus the full 32-candidate sweep on one replica. ns_op is ns per
// request (per best-of-32 request for the ensemble tiers); routed's
// speedup is versus direct, fan4's versus the single-replica sweep.
func clusterBench(cfg bench.Config) []bench.PerfRecord {
	cfg = cfg.Defaults()
	n := clusterN(cfg.Scale)
	g := bipartite.RandomER(n, n, 4, 7)
	rows, _, ptr, idx := g.CSR()
	edges := make([][2]int, 0, ptr[rows])
	for i := 0; i < rows; i++ {
		for p := ptr[i]; p < ptr[i+1]; p++ {
			edges = append(edges, [2]int{i, int(idx[p])})
		}
	}
	gs := wire.GraphSpec{Rows: n, Cols: n, Edges: edges}
	requests := 30 * cfg.Runs // 300 at the default 10 runs
	ensRequests := requests / 32
	if ensRequests < 1 {
		ensRequests = 1
	}
	sprank := g.Sprank()
	var lastSize int

	// Direct tier: one replica, no router in the path.
	single := bootFleet(1, cfg.Seed)
	defer single.close()
	directID := registerOn(single.urls[0], gs)
	direct := func() {
		for k := 0; k < requests; k++ {
			lastSize = postMatch(single.urls[0], wire.MatchRequest{
				Graph: directID, Algorithm: "twosided", Seed: cfg.Seed + uint64(k)})
		}
	}
	bestof32 := func() {
		for k := 0; k < ensRequests; k++ {
			lastSize = postMatch(single.urls[0], wire.MatchRequest{
				Graph: directID, Algorithm: "twosided", Seed: cfg.Seed + uint64(32*k), BestOf: 32})
		}
	}

	// Routed tier: 3 replicas behind the router.
	routedFleet := bootFleet(3, cfg.Seed)
	defer routedFleet.close()
	router3 := httptest.NewServer(cluster.NewRouterMux(cluster.NewRouter(
		cluster.New(routedFleet.urls, cluster.Options{HedgeDelay: -1}), 0)))
	defer router3.Close()
	routedID := registerOn(router3.URL, gs)
	routed := func() {
		for k := 0; k < requests; k++ {
			lastSize = postMatch(router3.URL, wire.MatchRequest{
				Graph: routedID, Algorithm: "twosided", Seed: cfg.Seed + uint64(k)})
		}
	}

	// Fan-out tier: best-of-32 split 4 ways across 4 replicas.
	fanFleet := bootFleet(4, cfg.Seed)
	defer fanFleet.close()
	router4 := httptest.NewServer(cluster.NewRouterMux(cluster.NewRouter(
		cluster.New(fanFleet.urls, cluster.Options{HedgeDelay: -1, FanOut: 4}), 0)))
	defer router4.Close()
	fanID := registerOn(router4.URL, gs)
	fan4 := func() {
		for k := 0; k < ensRequests; k++ {
			lastSize = postMatch(router4.URL, wire.MatchRequest{
				Graph: fanID, Algorithm: "twosided", Seed: cfg.Seed + uint64(32*k), BestOf: 32})
		}
	}

	var records []bench.PerfRecord
	tbl := &bench.Table{
		Title:   "cluster: routed fleet vs direct replica, fan-out vs full sweep",
		Headers: []string{"instance", "edges", "mode", "replicas", "us/req", "req/s", "speedup"},
	}
	inst := fmt.Sprintf("er-cluster-%s", cfg.Scale)
	var directBest, sweepBest time.Duration
	for _, mode := range []struct {
		name     string
		replicas int
		reqs     int
		run      func()
	}{
		{"cluster/direct", 1, requests, direct},
		{"cluster/routed3", 3, requests, routed},
		{"cluster/bestof32", 1, ensRequests, bestof32},
		{"cluster/bestof32/fan4", 4, ensRequests, fan4},
	} {
		best := bench.TimeBest(3, mode.run)
		switch mode.name {
		case "cluster/direct":
			directBest = best
		case "cluster/bestof32":
			sweepBest = best
		}
		perReq := best / time.Duration(mode.reqs)
		// Routed pays the extra hop for fleet capacity; fan4 buys the
		// sweep's latency down with replica parallelism. Each is compared
		// to its own single-replica shape.
		speedup := float64(directBest) / float64(best)
		if mode.name == "cluster/bestof32" || mode.name == "cluster/bestof32/fan4" {
			speedup = float64(sweepBest) / float64(best)
		}
		records = append(records, bench.PerfRecord{
			Instance:  inst,
			Edges:     g.Edges(),
			Heuristic: mode.name,
			Workers:   mode.replicas,
			NsOp:      perReq.Nanoseconds(),
			Quality:   float64(lastSize) / float64(sprank),
			Speedup:   speedup,
		})
		tbl.AddRow(inst, fmt.Sprintf("%d", g.Edges()), mode.name,
			fmt.Sprintf("%d", mode.replicas),
			fmt.Sprintf("%.1f", float64(perReq.Microseconds())),
			fmt.Sprintf("%.0f", float64(mode.reqs)/best.Seconds()),
			fmt.Sprintf("%.2f", speedup))
	}
	tbl.Write(cfg.Out)
	return records
}
