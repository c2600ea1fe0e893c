package core

import (
	"fmt"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/sparse"
)

// The width-1 Karp–Sipser kernel is Algorithm 4 on one goroutine, with
// plain loads and stores and branch-free vertex loops (ksSerial). Its
// contract is bit-identity with the atomic kernel run in index order on
// one goroutine, the schedule of a Workers: 1 run. ksAtomicReference is
// that schedule; the tests below hold every width-1 entry point to it.

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
// unscaled, through both entry points (Session.TwoSided and KarpSipserMT),
// on the default pool and on a wide one.
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
					cmpI32s(t, what+" session", res.Match, want)
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
// a self-loop. The kernel must agree with the atomic reference and return
// a maximum matching of the choice graph.
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
		got := KarpSipserMT(g, Options{Workers: 1, KSPolicy: par.Guided, Chunk: 3})
		cmpI32s(t, "width-1 kernel", got, want)
		checkKSMatching(t, g, got)
	})
}

// TestSessionWidth1CancelMidKarpSipser fires the cancellation hook at
// every chunk boundary of the Karp–Sipser regions of a width-1 run: the
// call must return nil each time, and the next uncanceled call on the
// same session must still reproduce the atomic reference.
func TestSessionWidth1CancelMidKarpSipser(t *testing.T) {
	a := gen.ERAvgDeg(700, 650, 3, 4)
	at, sc := scaledSK(t, a, 3)
	s := NewSession(a, at, opts(1, 0))
	s.SetScaling(sc.DR, sc.DC, sc.RSum, sc.CSum)
	const seed = 11
	want := append([]int32(nil), s.TwoSided(seed).Match...)

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
		cmpI32s(t, fmt.Sprintf("run after a cancel at poll %d", fire), s.TwoSided(seed).Match, want)
	}
	cmpI32s(t, "uncanceled width-1 run", want, ksAtomicReference(&s.cg))
}
