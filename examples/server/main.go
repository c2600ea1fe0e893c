// Serving flow: the same many-small-requests workload served three ways —
// one-shot calls, a reused Matcher session, and the batching Server — to
// show when each tier pays off.
//
//	go run ./examples/server
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	bipartite "repro"
)

const (
	requests = 400
	rows     = 20000
)

func main() {
	// A small instance: the regime where per-call setup (scaling, buffer
	// allocation, dispatch) rivals the kernels themselves.
	g := bipartite.RandomER(rows, rows, 4, 42)
	fmt.Printf("instance: %d + %d vertices, %d edges; %d requests\n\n",
		g.Rows(), g.Cols(), g.Edges(), requests)
	opt := &bipartite.Options{ScalingIterations: 5}

	// Tier 1: one-shot calls. Every request builds a fresh session and
	// reallocates every workspace; the graph keeps its scaling, so only
	// the first request pays for it.
	start := time.Now()
	size := 0
	for seed := uint64(1); seed <= requests; seed++ {
		res, err := g.Match(bipartite.Spec{Algorithm: bipartite.AlgTwoSided, Seed: seed}, opt)
		if err != nil {
			panic(err)
		}
		size = res.Matching.Size
	}
	report("one-shot", start, size)

	// Tier 2: a Matcher session. Every workspace is resident, so each
	// request is just the sampling and Karp-Sipser kernels.
	m := g.NewMatcher(opt)
	start = time.Now()
	for seed := uint64(1); seed <= requests; seed++ {
		res, err := m.Run(bipartite.Spec{Algorithm: bipartite.AlgTwoSided, Seed: seed})
		if err != nil {
			panic(err)
		}
		size = res.Matching.Size
	}
	report("matcher", start, size)

	// Tier 3: the batching Server under concurrent load. Requests from
	// many submitters ride shared pool-wide batches on warm per-slot
	// arenas (one shared scaling per graph); each response is still
	// deterministic per (graph, Spec). The admission queue is bounded:
	// were the submitters to outrun it, the overflow would fail fast with
	// bipartite.ErrOverloaded instead of queueing without bound, and
	// Request.Ctx would let each call carry a deadline.
	srv := bipartite.NewServerConfig(opt, bipartite.ServerConfig{MaxBatch: 64, Queue: 512})
	defer srv.Close()
	const submitters = 8
	start = time.Now()
	var wg sync.WaitGroup
	var lastSize atomic.Int64
	for s := 0; s < submitters; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := s; k < requests; k += submitters {
				resp := srv.Match(bipartite.Request{Graph: g,
					Spec: bipartite.Spec{Algorithm: bipartite.AlgTwoSided, Seed: uint64(k + 1)}})
				if resp.Err != nil {
					panic(resp.Err)
				}
				if k == requests-1 {
					lastSize.Store(int64(resp.Matching.Size))
				}
			}
		}()
	}
	wg.Wait()
	report("server", start, int(lastSize.Load()))
	st := srv.Stats()
	fmt.Printf("\nserver batching: %d requests in %d batches (mean %.1f/batch, %d rejected)\n",
		st.Requests, st.Batches, float64(st.Requests)/float64(st.Batches), st.Rejected)
}

func report(name string, start time.Time, size int) {
	elapsed := time.Since(start)
	fmt.Printf("%-9s %8.0f req/s   (%v total, last size %d)\n",
		name, requests/elapsed.Seconds(), elapsed.Round(time.Millisecond), size)
}
