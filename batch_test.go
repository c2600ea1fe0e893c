package bipartite

import (
	"fmt"
	"sync"
	"testing"
)

// matchBatch serves reqs with one Server.MatchBatch call, on a Server
// whose MaxBatch and Queue both fit the whole slice, and closes the
// Server. Responses do not depend on how the Server batches the requests.
func matchBatch(reqs []Request, opt *Options) []Response {
	n := max(len(reqs), 1)
	srv := NewServerConfig(opt, ServerConfig{MaxBatch: n, Queue: n})
	defer srv.Close()
	return srv.MatchBatch(reqs)
}

// batchReference computes the documented reference response of a request:
// the one-shot call at Workers: 1.
func batchReference(t *testing.T, req Request, opt Options) *Matching {
	t.Helper()
	opt.Workers = 1
	opt.Pool = nil
	res, err := req.Graph.Match(Spec{Algorithm: req.Spec.Algorithm, Seed: req.Spec.Seed}, &opt)
	if err != nil {
		t.Fatal(err)
	}
	return res.Matching
}

func batchWorkload() ([]Request, []*Graph) {
	graphs := []*Graph{
		RandomER(700, 700, 4, 31),
		FullyIndecomposable(500, 2, 7),
		RandomER(300, 420, 3, 5),
	}
	var reqs []Request
	for s := uint64(1); s <= 12; s++ {
		reqs = append(reqs,
			Request{Graph: graphs[s%3], Spec: Spec{Algorithm: AlgTwoSided, Seed: s}},
			Request{Graph: graphs[(s+1)%3], Spec: Spec{Algorithm: AlgOneSided, Seed: s}},
			Request{Graph: graphs[(s+2)%3], Spec: Spec{Algorithm: AlgKarpSipser, Seed: s}},
		)
	}
	reqs = append(reqs, Request{Graph: graphs[0], Spec: Spec{Algorithm: AlgTwoSided}}) // seed 0 means 1
	return reqs, graphs
}

// TestMatchBatchDeterministicAndCorrect runs a mixed workload through
// Server.MatchBatch at several pool widths and checks every response equals the
// documented reference (the one-shot call at one worker) — batching, slot
// assignment and pool width must not leak into results.
func TestMatchBatchDeterministicAndCorrect(t *testing.T) {
	reqs, _ := batchWorkload()
	base := Options{ScalingIterations: 5}
	want := make([]*Matching, len(reqs))
	for i, req := range reqs {
		want[i] = batchReference(t, req, base)
	}
	for _, width := range []int{1, 4} {
		pool := NewPool(width)
		opt := base
		opt.Pool = pool
		out := matchBatch(reqs, &opt)
		if len(out) != len(reqs) {
			t.Fatalf("width %d: %d responses for %d requests", width, len(out), len(reqs))
		}
		for i, resp := range out {
			if resp.Err != nil {
				t.Fatalf("width %d req %d: %v", width, i, resp.Err)
			}
			cmpMates(t, fmt.Sprintf("width %d req %d", width, i), resp.Matching, want[i])
			if err := reqs[i].Graph.ValidateMatching(resp.Matching); err != nil {
				t.Fatalf("width %d req %d: %v", width, i, err)
			}
		}
		pool.Close()
	}
}

// TestMatchBatchFreshGraphs serves graphs whose lazy transpose and sprank
// caches have never been touched, from several pool slots at once — the
// regression case for the unsynchronized g.at initialization (the other
// batch tests mask it by computing one-shot references, which build the
// transpose, before batching). Run under -race.
func TestMatchBatchFreshGraphs(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	fresh := []*Graph{
		RandomER(900, 900, 4, 101),
		RandomER(900, 900, 4, 102),
	}
	var reqs []Request
	for s := uint64(1); s <= 16; s++ {
		reqs = append(reqs, Request{Graph: fresh[s%2], Spec: Spec{Algorithm: AlgTwoSided, Seed: s}})
	}
	out := matchBatch(reqs, &Options{ScalingIterations: 5, Pool: pool})
	for i, resp := range out {
		if resp.Err != nil {
			t.Fatalf("req %d: %v", i, resp.Err)
		}
		if err := reqs[i].Graph.ValidateMatching(resp.Matching); err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
	}
	// The responses for equal (graph, seed) must agree with a post-hoc
	// one-shot reference.
	ref, err := fresh[1].Match(Spec{Algorithm: AlgTwoSided, Seed: 1}, &Options{ScalingIterations: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cmpMates(t, "fresh graph req 0", out[0].Matching, ref.Matching)
}

// TestMatchBatchNilGraph: a nil-graph request fails cleanly without
// affecting its neighbors.
func TestMatchBatchNilGraph(t *testing.T) {
	g := RandomER(200, 200, 3, 1)
	out := matchBatch([]Request{
		{Graph: g, Spec: Spec{Seed: 1}},
		{Graph: nil, Spec: Spec{Seed: 2}},
		{Graph: g, Spec: Spec{Seed: 3}},
	}, nil)
	if out[1].Err == nil {
		t.Fatal("nil graph accepted")
	}
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("healthy requests failed: %v %v", out[0].Err, out[2].Err)
	}
	if out[0].Matching == nil || out[2].Matching == nil {
		t.Fatal("healthy requests returned no matching")
	}
}

// TestMatchBatchEmpty: no requests, no responses, no work.
func TestMatchBatchEmpty(t *testing.T) {
	if out := matchBatch(nil, nil); len(out) != 0 {
		t.Fatalf("empty batch returned %d responses", len(out))
	}
}

// TestMatchBatchConcurrentCalls runs several Server.MatchBatch calls at
// once on one shared pool (each call opens its own Server, so its own
// engine; the pool and the recycled loop runtime are the shared state the
// race detector probes) and checks the results stay deterministic.
func TestMatchBatchConcurrentCalls(t *testing.T) {
	reqs, _ := batchWorkload()
	base := Options{ScalingIterations: 5}
	want := make([]*Matching, len(reqs))
	for i, req := range reqs {
		want[i] = batchReference(t, req, base)
	}
	pool := NewPool(4)
	defer pool.Close()
	opt := base
	opt.Pool = pool

	const callers = 4
	var wg sync.WaitGroup
	outs := make([][]Response, callers)
	for c := 0; c < callers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[c] = matchBatch(reqs, &opt)
		}()
	}
	wg.Wait()
	for c, out := range outs {
		for i, resp := range out {
			if resp.Err != nil {
				t.Fatalf("caller %d req %d: %v", c, i, resp.Err)
			}
			cmpMates(t, fmt.Sprintf("caller %d req %d", c, i), resp.Matching, want[i])
		}
	}
}

// TestServerConcurrentSubmitters hammers one Server from many goroutines
// (the -race coverage of the serving path) and checks every response is
// the deterministic reference result, whatever batches formed.
func TestServerConcurrentSubmitters(t *testing.T) {
	reqs, _ := batchWorkload()
	base := Options{ScalingIterations: 5}
	want := make([]*Matching, len(reqs))
	for i, req := range reqs {
		want[i] = batchReference(t, req, base)
	}

	pool := NewPool(4)
	defer pool.Close()
	opt := base
	opt.Pool = pool
	srv := NewServerConfig(&opt, ServerConfig{MaxBatch: 16})
	defer srv.Close()

	const submitters = 8
	var wg sync.WaitGroup
	errs := make(chan error, submitters*len(reqs))
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, req := range reqs {
				resp := srv.Match(req)
				if resp.Err != nil {
					errs <- fmt.Errorf("req %d: %w", i, resp.Err)
					return
				}
				if resp.Matching.Size != want[i].Size {
					errs <- fmt.Errorf("req %d: size %d want %d", i, resp.Matching.Size, want[i].Size)
					return
				}
				for r := range want[i].RowMate {
					if resp.Matching.RowMate[r] != want[i].RowMate[r] {
						errs <- fmt.Errorf("req %d: RowMate[%d] differs", i, r)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := srv.Stats()
	if st.Requests != int64(submitters*len(reqs)) {
		t.Fatalf("stats: %d requests, want %d", st.Requests, submitters*len(reqs))
	}
	if st.Batches < 1 || st.Batches > st.Requests {
		t.Fatalf("stats: implausible batch count %d for %d requests", st.Batches, st.Requests)
	}
}

// TestServerCloseIdempotent: Close twice is fine, and a server with no
// traffic shuts down cleanly.
func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServerConfig(nil, ServerConfig{})
	srv.Close()
	srv.Close()
}
