package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/scale"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// Both heuristics settle their conflicts on the calling goroutine, as the
// paper's kernels would on one worker in index order. TwoSided's
// Karp–Sipser kernel is Algorithm 4 with plain loads and stores and
// branch-free vertex loops (ksInPlace), and its contract is bit-identity
// with the atomic kernel run in index order on one goroutine and decoded:
// DecodeMatch(g, ksAtomicReference(g)) is that schedule's matching.
// OneSided's claim pass must equal the paper's store loop run the same
// way: CMatchToMatching of oneSidedReference. The tests below hold the
// entry points to them.

// ksAtomicReference runs the atomic range bodies over the whole vertex
// range, in index order, on the calling goroutine.
func ksAtomicReference(g *ChoiceGraph) []int32 {
	nm := g.N + g.M
	match, mark, deg := make([]int32, nm), make([]int32, nm), make([]int32, nm)
	ksInitRange(match, mark, deg, 0, nm)
	ksLinkRange(g.Choice, mark, deg, 0, nm)
	ksPhase1Range(g.Choice, match, mark, deg, 0, nm)
	ksPhase2Range(g.Choice, match, g.N, 0, g.M)
	return match
}

// oneSidedReference is OneSided as the paper states it: every row, in
// index order on the calling goroutine, draws one column with sampleRow's
// prefix walk and stores itself into that column, so the last store — the
// largest row that chose a column — wins. Session.OneSided must equal it
// at every width.
func oneSidedReference(a *sparse.CSR, dc, tot []float64, seed uint64) []int32 {
	cmatch := make([]int32, a.ColsN)
	for j := range cmatch {
		cmatch[j] = NIL
	}
	base := xrand.Base(seed)
	var rng xrand.SplitMix64
	for i := 0; i < a.RowsN; i++ {
		rng.SetIndexed(base, i)
		if j := sampleRow(a, dc, i, tot, &rng); j != NIL {
			atomic.StoreInt32(&cmatch[j], int32(i))
		}
	}
	return cmatch
}

// TestOneSidedMatchesReference holds Session.OneSided's whole matching
// and the one-shot OneSided's cmatch to oneSidedReference on Erdős–Rényi
// (one with empty rows and columns), power-law and fully indecomposable
// inputs: scaled with and without the exported totals, and unscaled, at
// widths 1 to 4 of a wide pool under static and guided schedules.
func TestOneSidedMatchesReference(t *testing.T) {
	mats := map[string]*sparse.CSR{
		"er":      gen.ERAvgDeg(2500, 2300, 4, 3),
		"er-thin": gen.ERAvgDeg(1800, 1900, 1.5, 8),
		"pl":      gen.PowerLaw(2000, 2, 1.8, 400, 9),
		"fi":      gen.FullyIndecomposable(2200, 3, 5),
	}
	wide := par.NewPool(4)
	defer wide.Close()
	for name, a := range mats {
		at, sc := scaledSK(t, a, 5)
		inputs := []struct {
			name   string
			dr, dc []float64
			rtot   []float64
		}{
			{"scaled", sc.DR, sc.DC, nil},
			{"scaled+totals", sc.DR, sc.DC, sc.RSum},
			{"unscaled", nil, nil, nil},
		}
		for _, in := range inputs {
			for _, seed := range []uint64{1, 77} {
				want := oneSidedReference(a, in.dc, in.rtot, seed)
				wantMt := CMatchToMatching(a.RowsN, want)
				for w := 1; w <= 4; w++ {
					for _, pol := range []par.Policy{par.Static, par.Guided} {
						what := fmt.Sprintf("%s %s seed=%d w=%d %v", name, in.name, seed, w, pol)
						opt := Options{Workers: w, Policy: pol, Chunk: 64, Seed: seed, Pool: wide,
							RowTotals: in.rtot}
						s := NewSession(a, at, opt)
						s.SetScaling(in.dr, in.dc, in.rtot, nil)
						cmpMatching(t, what+" session", s.OneSided(seed), wantMt)
						if s.cg.Choice != nil || s.cnt != nil {
							t.Fatalf("%s: a OneSided call sized TwoSided's buffers", what)
						}
						got, size := OneSided(a, in.dr, in.dc, opt)
						cmpI32s(t, what+" one-shot", got, want)
						if size != wantMt.Size {
							t.Fatalf("%s: one-shot size %d want %d", what, size, wantMt.Size)
						}
					}
				}
			}
		}
	}
}

// checkKSMatching fails unless match is a valid matching of the choice
// graph g whose size is the maximum matching size of g (the kernel is
// exact on every 1-out graph, Lemmas 1–3).
func checkKSMatching(t testing.TB, g *ChoiceGraph, match []int32) {
	t.Helper()
	for u, v := range match {
		if v == NIL {
			continue
		}
		if v < 0 || int(v) >= len(match) || match[v] != int32(u) {
			t.Fatalf("match[%d]=%d is not mutual", u, v)
		}
		if g.Choice[u] != v && g.Choice[v] != int32(u) {
			t.Fatalf("pair (%d,%d) is not a choice edge", u, v)
		}
		if (u < g.N) == (int(v) < g.N) {
			t.Fatalf("pair (%d,%d) lies within one side", u, v)
		}
	}
	if got, want := DecodeMatch(g, match).Size, exact.HopcroftKarp(g.ToCSR(), nil).Size; got != want {
		t.Fatalf("matched %d, maximum matching of the choice graph is %d", got, want)
	}
}

// TestKarpSipserWidth1SampledChoiceGraphs compares the width-1 kernel with
// the atomic reference on the choice graphs TwoSided samples from
// Erdős–Rényi, power-law and fully indecomposable inputs, scaled and
// unscaled, through both entry points (Session.TwoSided's whole matching
// and KarpSipserMT's match array), on the default pool and on a wide one.
func TestKarpSipserWidth1SampledChoiceGraphs(t *testing.T) {
	mats := map[string]*sparse.CSR{
		"er":      gen.ERAvgDeg(2500, 2300, 4, 3),
		"er-thin": gen.ERAvgDeg(1800, 1800, 1.5, 8),
		"pl":      gen.PowerLaw(2000, 2, 1.8, 400, 9),
		"fi":      gen.FullyIndecomposable(2200, 3, 5),
	}
	wide := par.NewPool(4)
	defer wide.Close()
	for name, a := range mats {
		at, sc := scaledSK(t, a, 5)
		for _, scaled := range []bool{false, true} {
			for _, pool := range []*par.Pool{nil, wide} {
				opt := opts(1, 0)
				opt.Pool = pool
				s := NewSession(a, at, opt)
				if scaled {
					s.SetScaling(sc.DR, sc.DC, sc.RSum, sc.CSum)
				}
				for _, seed := range []uint64{1, 2, 77} {
					what := fmt.Sprintf("%s scaled=%v wide=%v seed=%d", name, scaled, pool != nil, seed)
					res := s.TwoSided(seed)
					want := ksAtomicReference(res.Graph)
					cmpMatching(t, what+" session", res.Matching, DecodeMatch(res.Graph, want))
					cmpI32s(t, what+" KarpSipserMT", KarpSipserMT(res.Graph, opt), want)
					checkKSMatching(t, res.Graph, want)
				}
			}
		}
	}
}

// choiceGraph builds a ChoiceGraph straight from its vertex-id Choice
// array (a self-loop marks a vertex that chose nothing).
func choiceGraph(n, m int, choice func(u int) int) *ChoiceGraph {
	g := &ChoiceGraph{N: n, M: m, Choice: make([]int32, n+m)}
	for u := range g.Choice {
		g.Choice[u] = int32(choice(u))
	}
	return g
}

// handBuiltChoiceGraphs are the shapes Algorithm 4's phases treat
// differently: stars (many in-edges on one vertex), self-loops, mutual
// 2-cliques, long out-one chains that Phase 1 follows across chunk
// boundaries, and cycles over odd and even numbers of row/column pairs
// that only Phase 2 resolves, bare and with pendant paths.
func handBuiltChoiceGraphs() map[string]*ChoiceGraph {
	gs := map[string]*ChoiceGraph{}
	// Every row chooses column 0 and every column row 1, as in
	// TestKarpSipserMTAdversarialChoices.
	gs["star"] = choiceGraph(50, 50, func(u int) int {
		if u < 50 {
			return 50
		}
		return 1
	})
	gs["star-columns"] = choiceGraph(3, 200, func(u int) int {
		if u < 3 {
			return 3 + u
		}
		return 2
	})
	gs["self-loops"] = choiceGraph(40, 30, func(u int) int { return u })
	gs["self-loops-mixed"] = choiceGraph(40, 40, func(u int) int {
		switch {
		case u%3 == 0:
			return u
		case u < 40:
			return 40 + (u*7)%40
		default:
			return (u * 11) % 40
		}
	})
	// Row i and column i choose each other.
	gs["two-cliques"] = choiceGraph(300, 300, func(u int) int {
		if u < 300 {
			return 300 + u
		}
		return u - 300
	})
	// r0 -> c0 -> r1 -> c1 -> ... -> r(k-1) -> c(k-1) -> r(k-1): one path
	// of 2k vertices, far longer than a scheduling chunk.
	chain := func(k int) *ChoiceGraph {
		return choiceGraph(k, k, func(u int) int {
			if u < k {
				return k + u
			}
			if j := u - k; j+1 < k {
				return j + 1
			}
			return k - 1
		})
	}
	gs["chain-odd"] = chain(1501)
	gs["chain-even"] = chain(1500)
	// r0 -> c0 -> r1 -> ... -> c(k-1) -> r0: a cycle through k rows and k
	// columns with no out-one vertex.
	cycle := func(k int) *ChoiceGraph {
		return choiceGraph(k, k, func(u int) int {
			if u < k {
				return k + u
			}
			return (u - k + 1) % k
		})
	}
	for _, k := range []int{1, 2, 3, 4, 999, 1000} {
		gs[fmt.Sprintf("cycle-%d", k)] = cycle(k)
	}
	// A cycle of k pairs with a pendant path of p rows hanging off every
	// row of the cycle: Phase 1 consumes the paths, then Phase 2 the cycle.
	pendant := func(k, p int) *ChoiceGraph {
		n := k + k*p
		return choiceGraph(n, n, func(u int) int {
			switch {
			case u < k: // cycle rows choose their cycle column
				return n + u
			case u < n: // pendant rows choose their own column
				return n + u
			case u < n+k: // cycle columns close the cycle
				return (u - n + 1) % k
			default: // pendant column j points one step toward the cycle
				j := u - n
				if (j-k)%p == 0 {
					return (j - k) / p
				}
				return j - 1
			}
		})
	}
	gs["cycle-odd-pendants"] = pendant(7, 3)
	gs["cycle-even-pendants"] = pendant(8, 5)
	return gs
}

// TestKarpSipserWidth1HandBuilt compares the width-1 kernel with the
// atomic reference on hand-built choice arrays, at every scheduling
// policy and at chunks small enough to split each shape.
func TestKarpSipserWidth1HandBuilt(t *testing.T) {
	for name, g := range handBuiltChoiceGraphs() {
		want := ksAtomicReference(g)
		checkKSMatching(t, g, want)
		for _, pol := range []par.Policy{par.Static, par.Dynamic, par.Guided} {
			for _, chunk := range []int{1, 7, 512} {
				o := Options{Workers: 1, KSPolicy: pol, Chunk: chunk}
				cmpI32s(t, fmt.Sprintf("%s %v chunk=%d", name, pol, chunk), KarpSipserMT(g, o), want)
			}
		}
	}
}

// FuzzKarpSipserWidth1 runs the width-1 kernel on arbitrary choice
// arrays: the first two bytes size the sides (1–32 vertices each), and
// each further byte picks the next vertex's choice on the other side, or
// a self-loop. ksInPlace's mates and size must equal the decoded atomic
// reference, KarpSipserMT's match array the reference itself, and the
// matching must be a maximum matching of the choice graph.
func FuzzKarpSipserWidth1(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{2, 2, 0, 1, 2, 1, 2, 0})
	f.Add([]byte{4, 4, 0, 0, 0, 0, 0, 1, 2, 3, 4})
	f.Add([]byte{9, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 9, 9, 9})
	f.Add([]byte{31, 31, 255, 254, 3, 7, 11, 13, 17, 19, 23, 29, 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, m := 1+int(data[0])%32, 1+int(data[1])%32
		g := choiceGraph(n, m, func(u int) int {
			b := 255
			if 2+u < len(data) {
				b = int(data[2+u])
			}
			if u < n {
				if k := b % (m + 1); k < m {
					return n + k
				}
				return u
			}
			if k := b % (n + 1); k < n {
				return k
			}
			return u
		})
		want := ksAtomicReference(g)
		mate := make([]int32, n+m)
		size, ok := ksInPlace(g.Choice, mate, make([]int32, n+m), n, 3, nil)
		if !ok {
			t.Fatal("ksInPlace without a cancellation hook reported a cancel")
		}
		cmpMatching(t, "ksInPlace", &exact.Matching{RowMate: mate[:n], ColMate: mate[n:], Size: size}, DecodeMatch(g, want))
		got := KarpSipserMT(g, Options{Workers: 1, KSPolicy: par.Guided, Chunk: 3})
		cmpI32s(t, "width-1 kernel", got, want)
		checkKSMatching(t, g, got)
	})
}

// TestSessionWidth1CancelMidKarpSipser fires the cancellation hook at
// every chunk boundary of the Karp–Sipser regions of a width-1 run: the
// call must return nil each time, and the next uncanceled call on the
// same session must still reproduce the decoded atomic reference.
func TestSessionWidth1CancelMidKarpSipser(t *testing.T) {
	a := gen.ERAvgDeg(700, 650, 3, 4)
	at, sc := scaledSK(t, a, 3)
	s := NewSession(a, at, opts(1, 0))
	s.SetScaling(sc.DR, sc.DC, sc.RSum, sc.CSum)
	const seed = 11
	want := cloneMatching(s.TwoSided(seed).Matching)

	// Count the polls of one full run. The Karp–Sipser regions start
	// after the entry check and one poll per sampling chunk; the first
	// Karp–Sipser poll is the one after those.
	polls := 0
	s.SetCancel(func() bool { polls++; return false })
	if s.TwoSided(seed) == nil {
		t.Fatal("uncanceled run returned nil")
	}
	chunk := opts(1, 0).Chunk
	nm := a.RowsN + a.ColsN
	firstKS := 1 + (nm+chunk-1)/chunk + 1
	if firstKS >= polls {
		t.Fatalf("poll count %d leaves no Karp–Sipser polls (first at %d)", polls, firstKS)
	}
	for fire := firstKS; fire < polls; fire++ {
		calls := 0
		s.SetCancel(func() bool { calls++; return calls >= fire })
		if res := s.TwoSided(seed); res != nil {
			t.Fatalf("hook fired at poll %d of %d: TwoSided returned a result", fire, polls)
		}
		s.SetCancel(nil)
		cmpMatching(t, fmt.Sprintf("run after a cancel at poll %d", fire), s.TwoSided(seed).Matching, want)
	}
	cmpMatching(t, "uncanceled width-1 run", want, DecodeMatch(&s.cg, ksAtomicReference(&s.cg)))
}

// offlineFamilyGraph is one graph of TestKarpSipserInPlaceOfflineFamilies
// with its transpose and its five-iteration scaling.
type offlineFamilyGraph struct {
	name  string
	seed  uint64
	a, at *sparse.CSR
	sc    *scale.Result
}

// offlineFamilyGraphs builds the five offline benchmark families at n ≈ 4k
// (heavytail, roadnet21, rankdef, longthin, skewdeg), graph seeds 1 to 10,
// and scales each once per test binary, not once per -cpu value.
var offlineFamilyGraphs = sync.OnceValues(func() ([]offlineFamilyGraph, error) {
	const n = 4000
	families := []struct {
		name string
		gen  func(seed uint64) *sparse.CSR
	}{
		{"heavytail", func(seed uint64) *sparse.CSR { return gen.PowerLaw(n, 15, 1.35, n/2, seed) }},
		{"roadnet21", func(seed uint64) *sparse.CSR { return gen.RoadLike(n, 2.1, seed) }},
		{"rankdef", func(seed uint64) *sparse.CSR { return gen.RankDeficient(n, n*3/10, 6, seed) }},
		{"longthin", func(uint64) *sparse.CSR { return gen.LongThinPath(n) }},
		{"skewdeg", func(seed uint64) *sparse.CSR { return gen.SkewedDegree(n, n*4/5, 6, 3, seed) }},
	}
	var graphs []offlineFamilyGraph
	for _, f := range families {
		for seed := uint64(1); seed <= 10; seed++ {
			a := f.gen(seed)
			at := a.Transpose()
			sc, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: 5, Workers: 4, Policy: par.Dynamic})
			if err != nil {
				return nil, err
			}
			graphs = append(graphs, offlineFamilyGraph{f.name, seed, a, at, sc})
		}
	}
	return graphs, nil
})

// TestKarpSipserInPlaceOfflineFamilies holds Session.TwoSided's whole
// matching to the decoded atomic reference on offlineFamilyGraphs, with
// each graph's seed as the sampling seed, at widths 1, 2 and 4 of a wide
// pool.
func TestKarpSipserInPlaceOfflineFamilies(t *testing.T) {
	graphs, err := offlineFamilyGraphs()
	if err != nil {
		t.Fatal(err)
	}
	wide := par.NewPool(4)
	defer wide.Close()
	for _, g := range graphs {
		var want *exact.Matching
		for _, w := range []int{1, 2, 4} {
			opt := Options{Workers: w, Policy: par.Dynamic, Pool: wide}
			s := NewSession(g.a, g.at, opt)
			s.SetScaling(g.sc.DR, g.sc.DC, g.sc.RSum, g.sc.CSum)
			res := s.TwoSided(g.seed)
			if want == nil {
				want = DecodeMatch(res.Graph, ksAtomicReference(res.Graph))
			}
			cmpMatching(t, fmt.Sprintf("%s seed=%d w=%d", g.name, g.seed, w), res.Matching, want)
		}
	}
}
