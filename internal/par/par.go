// Package par provides an OpenMP-like parallel-for runtime on top of a
// persistent worker pool. It supports the three loop scheduling policies
// used by the paper's OpenMP implementation (static, dynamic and guided)
// so that the experiments can reproduce the same work-distribution
// behaviour: (dynamic,512) for the scaling and sampling loops, (guided)
// for KarpSipserMT.
//
// Parallel regions do not spawn goroutines: they are dispatched to parked
// workers of a Pool (see its documentation for the runtime design and
// lifecycle). The package-level For uses the process-wide Default pool;
// callers that want an isolated or width-limited set of workers create
// their own Pool with NewPool and use its methods (For, ForCancel, Do,
// ReduceFloat64), reusing the one pool across scaling, sampling and both
// Karp–Sipser phases.
package par

import "runtime"

// Policy selects how loop iterations are distributed over workers.
type Policy int

const (
	// Static splits the iteration space into one contiguous block per
	// worker. No synchronization during the loop; best for uniform work.
	Static Policy = iota
	// Dynamic hands out fixed-size chunks from a shared counter; workers
	// grab the next chunk when they finish one. Equivalent to OpenMP
	// schedule(dynamic,chunk).
	Dynamic
	// Guided hands out exponentially shrinking chunks, each roughly
	// remaining/(2*workers) but never below the chunk parameter.
	// Equivalent to OpenMP schedule(guided,chunk).
	Guided
)

// String returns the OpenMP-style name of the policy.
func (p Policy) String() string {
	switch p {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	default:
		return "unknown"
	}
}

// DefaultChunk is the chunk size used when the caller passes chunk <= 0.
// It matches the (dynamic,512) OpenMP schedule used by the paper.
const DefaultChunk = 512

// Workers normalizes a requested worker count: values <= 0 mean
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// For executes body over the half-open range [0, n) using the given number
// of worker slots and scheduling policy, dispatched to the Default pool.
// body receives the worker id (0-based, dense in [0, workers)) and a
// sub-range [lo, hi) to process. It returns once all iterations are done.
// A non-positive worker count uses the pool width; a non-positive chunk
// uses DefaultChunk. With a single worker the loop runs inline, which
// keeps sequential baselines free of any dispatch overhead.
func For(n, workers int, policy Policy, chunk int, body func(worker, lo, hi int)) {
	Default().For(n, workers, policy, chunk, body)
}
