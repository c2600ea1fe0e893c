package main

import (
	"time"

	bip "repro"
	"repro/internal/gen"
	"repro/internal/sparse"
)

// graphRole says how a serving workload uses a registered graph.
type graphRole int

const (
	roleRead     graphRole = iota // pattern graph that is never patched
	roleWrite                     // pattern graph that receives PATCH batches
	roleWeighted                  // weighted graph, read by the auction
)

// serveGraph is one registered graph: the benchmark's own copy of it
// (rows sorted), the id the server gave it, and the references its
// answers are checked against.
type serveGraph struct {
	name    string
	role    graphRole
	a       *sparse.CSR
	id      string
	sprank  int     // roleRead: the structural rank
	optimum float64 // roleWeighted: the maximum matched weight

	// roleWrite: the patch that inserted or deleted each touched edge.
	// The stream touches every edge at most once, so patch batches
	// commute and any set of applied batches defines one edge set.
	insBy, delBy map[int64]int
	deletable    [][2]int32 // original edges no batch has deleted yet
}

func edgeKey(i, j int32) int64 { return int64(i)<<32 | int64(uint32(j)) }

// hasEdge reports whether (i, j) is an edge of a write graph once exactly
// the batches for which applied returns true have been applied.
func (g *serveGraph) hasEdge(i, j int32, applied func(p int) bool) bool {
	k := edgeKey(i, j)
	if p, ok := g.insBy[k]; ok {
		return applied(p)
	}
	if p, ok := g.delBy[k]; ok {
		return !applied(p)
	}
	return edgePos(g.a, i, j) >= 0
}

func newServeGraph(name string, role graphRole, a *sparse.CSR) *serveGraph {
	g := &serveGraph{name: name, role: role, a: sortedCSR(a)}
	if role == roleWrite {
		g.insBy, g.delBy = map[int64]int{}, map[int64]int{}
		for i := 0; i < g.a.RowsN; i++ {
			for _, j := range g.a.Row(i) {
				g.deletable = append(g.deletable, [2]int32{int32(i), j})
			}
		}
	}
	return g
}

// weightedGraph builds an n×n random graph with seeded weights from the
// library's generator and copies it into the benchmark's own CSR.
func weightedGraph(n int, dist bip.WeightDist, seed uint64) (*sparse.CSR, error) {
	a := gen.ERAvgDeg(n, n, 4, seed)
	g, err := bip.NewGraph(a.RowsN, a.ColsN, a.Ptr, a.Idx)
	if err != nil {
		return nil, err
	}
	wg := g.RandomWeights(dist, seed+1)
	rows, cols, ptr, idx := wg.CSR()
	return &sparse.CSR{RowsN: rows, ColsN: cols, Ptr: append([]int(nil), ptr...),
		Idx: append([]int32(nil), idx...), Val: append([]float64(nil), wg.Weights()...)}, nil
}

// directGraphs are serve-direct's eight read-only graphs: Erdős–Rényi and
// power-law patterns at four sizes.
func directGraphs(seed uint64) ([]*serveGraph, error) {
	var gs []*serveGraph
	for k, n := range []int{2000, 5000, 10000, 20000} {
		gs = append(gs,
			newServeGraph("er", roleRead, gen.ERAvgDeg(n, n, 4, deriveSeed(seed, uint64(10+k)))),
			newServeGraph("pl", roleRead, gen.PowerLaw(n, 2, 2.0, n/20, deriveSeed(seed, uint64(20+k)))))
	}
	return gs, nil
}

// routedGraphs are serve-routed-rw's twelve graphs: eight patterns of
// which the four smallest receive PATCH batches, and four weighted graphs
// (two with uniform, two with skewed weights).
func routedGraphs(seed uint64) ([]*serveGraph, error) {
	var gs []*serveGraph
	for k, n := range []int{2000, 4000, 7000, 10000} {
		role := roleRead
		if n <= 4000 {
			role = roleWrite
		}
		gs = append(gs,
			newServeGraph("er", role, gen.ERAvgDeg(n, n, 4, deriveSeed(seed, uint64(30+k)))),
			newServeGraph("pl", role, gen.PowerLaw(n, 2, 2.0, n/20, deriveSeed(seed, uint64(40+k)))))
	}
	for k, dist := range []bip.WeightDist{bip.WeightUniform, bip.WeightUniform, bip.WeightSkewed, bip.WeightSkewed} {
		a, err := weightedGraph(1000, dist, deriveSeed(seed, uint64(50+k)))
		if err != nil {
			return nil, err
		}
		gs = append(gs, newServeGraph("weighted", roleWeighted, a))
	}
	return gs, nil
}

// reqKind is one kind of request in a serving mix.
type reqKind int

const (
	kindTwoSided reqKind = iota // single TwoSided read
	kindBestOf                  // best_of: 8 TwoSided ensemble
	kindAuction                 // auction read of a weighted graph
	kindPatch                   // PATCH batch of a write graph
)

const (
	bestOf     = 8
	patchEdges = 16 // inserts and deletes per PATCH batch
)

// request is one generated request; patch indexes stream.patches.
type request struct {
	at    time.Duration // due time within its phase
	kind  reqKind
	graph int
	seed  uint64
	patch int
}

// patchBatch is one PATCH body.
type patchBatch struct {
	graph    int
	ins, del [][2]int32
}

// slot is one request's kind and graph, before its seed is drawn.
type slot struct {
	kind  reqKind
	graph int
}

// blockFunc lists one block of a workload's mix: every kind on every
// graph it applies to, in the mix's proportions. The stream sends blocks
// in a seeded shuffled order, so any whole number of blocks has exactly
// the same composition whatever the seed; only the order, the matching
// seeds and the patched edges vary. A random draw per request would let
// the share of large graphs and ensembles drift from run to run and move
// the latency percentiles with it.
type blockFunc func(gs []*serveGraph) []slot

// directBlock is 90% single TwoSided reads and 10% best_of: 8: one
// ensemble on each graph, and eleven single reads on each graph with
// n <= 5000 against seven on the larger ones, 80 requests in all. Latency
// grows with n, so a mix split evenly over the four sizes would put its
// median in the gap between the 5k and 10k graphs' latencies, where it
// jumps between the two; with 30% of the requests on 2k graphs and 30% on
// 5k graphs the median falls inside the 5k graphs' range.
func directBlock(gs []*serveGraph) []slot {
	var b []slot
	for gi, g := range gs {
		single := 7
		if g.a.RowsN <= 5000 {
			single = 11
		}
		for k := 0; k < single; k++ {
			b = append(b, slot{kindTwoSided, gi})
		}
		b = append(b, slot{kindBestOf, gi})
	}
	return b
}

// routedBlock is 60% TwoSided reads (three on each pattern graph), 10%
// best_of: 8 (one on each read-only graph), 10% auction reads (one on each
// weighted graph) and 20% PATCH batches (two on each write graph): 40
// requests. Ensembles stay on read-only graphs: the router replicates a
// graph to fan an ensemble out, and those copies do not follow later
// patches.
func routedBlock(gs []*serveGraph) []slot {
	var b []slot
	for gi, g := range gs {
		switch g.role {
		case roleRead, roleWrite:
			for k := 0; k < 3; k++ {
				b = append(b, slot{kindTwoSided, gi})
			}
			if g.role == roleRead {
				b = append(b, slot{kindBestOf, gi})
			} else {
				b = append(b, slot{kindPatch, gi}, slot{kindPatch, gi})
			}
		case roleWeighted:
			b = append(b, slot{kindAuction, gi})
		}
	}
	return b
}

// stream generates a workload's requests in order. It is a pure function
// of its seed and graphs: the same seed yields the same requests, patches
// included.
type stream struct {
	r       *rng
	gs      []*serveGraph
	block   []slot
	pending []slot
	patches []patchBatch
}

func newStream(seed uint64, gs []*serveGraph, block blockFunc) *stream {
	return &stream{r: newRNG(deriveSeed(seed, 100)), gs: gs, block: block(gs)}
}

func (s *stream) next() request {
	if len(s.pending) == 0 {
		s.pending = append(s.pending, s.block...)
		for i := len(s.pending) - 1; i > 0; i-- {
			j := s.r.intn(i + 1)
			s.pending[i], s.pending[j] = s.pending[j], s.pending[i]
		}
	}
	sl := s.pending[len(s.pending)-1]
	s.pending = s.pending[:len(s.pending)-1]
	req := request{kind: sl.kind, graph: sl.graph, seed: s.r.next()>>1 + 1}
	if sl.kind == kindPatch {
		req.patch = s.newPatch(sl.graph)
	}
	return req
}

// newPatch draws one batch: patchEdges original edges no batch deleted
// before, and patchEdges non-edges no batch inserted before.
func (s *stream) newPatch(gi int) int {
	g := s.gs[gi]
	p := len(s.patches)
	b := patchBatch{graph: gi}
	for k := 0; k < patchEdges && len(g.deletable) > 0; k++ {
		x := s.r.intn(len(g.deletable))
		e := g.deletable[x]
		g.deletable[x] = g.deletable[len(g.deletable)-1]
		g.deletable = g.deletable[:len(g.deletable)-1]
		g.delBy[edgeKey(e[0], e[1])] = p
		b.del = append(b.del, e)
	}
	for len(b.ins) < patchEdges {
		i, j := int32(s.r.intn(g.a.RowsN)), int32(s.r.intn(g.a.ColsN))
		k := edgeKey(i, j)
		if _, taken := g.insBy[k]; taken || edgePos(g.a, i, j) >= 0 {
			continue
		}
		g.insBy[k] = p
		b.ins = append(b.ins, [2]int32{i, j})
	}
	s.patches = append(s.patches, b)
	return p
}

// whole rounds n up to a whole number of blocks, so every phase starts on
// a block boundary and has the mix's exact composition.
func (s *stream) whole(n int) int {
	b := len(s.block)
	return (n + b - 1) / b * b
}

// open returns at least n requests, a whole number of blocks, due at a
// constant rate.
func (s *stream) open(n int, rate float64) []request {
	reqs := make([]request, s.whole(n))
	for i := range reqs {
		reqs[i] = s.next()
		reqs[i].at = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return reqs
}

// serial returns at least n requests, a whole number of blocks, meant to
// be sent one at a time.
func (s *stream) serial(n int) []request {
	reqs := make([]request, s.whole(n))
	for i := range reqs {
		reqs[i] = s.next()
	}
	return reqs
}
