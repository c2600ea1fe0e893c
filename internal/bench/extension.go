package bench

import (
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/undirected"
)

// WalkupRow is one size point of the k-out experiment (paper ref [31]):
// Walkup proved random 1-out bipartite graphs have maximum matchings of
// ≈ 0.866n while 2-out graphs have perfect matchings almost surely.
type WalkupRow struct {
	N        int
	OneOut   float64 // sprank(1-out)/n
	TwoOut   float64 // sprank(2-out)/n
	ThreeOut float64
}

// Walkup measures maximum matchings of k-out graphs for k = 1, 2, 3.
func Walkup(cfg Config, sizes []int) []WalkupRow {
	cfg = cfg.Defaults()
	if len(sizes) == 0 {
		sizes = []int{1000, 4000, 16000}
	}
	var rows []WalkupRow
	for _, n := range sizes {
		row := WalkupRow{N: n}
		row.OneOut = float64(exact.Sprank(gen.KOut(n, 1, cfg.Seed))) / float64(n)
		row.TwoOut = float64(exact.Sprank(gen.KOut(n, 2, cfg.Seed))) / float64(n)
		row.ThreeOut = float64(exact.Sprank(gen.KOut(n, 3, cfg.Seed))) / float64(n)
		rows = append(rows, row)
	}
	t := table{
		Title:   "Extension: Walkup k-out graphs (1-out -> 0.866, 2-out -> perfect)",
		Headers: []string{"n", "sprank(1-out)/n", "sprank(2-out)/n", "sprank(3-out)/n"},
	}
	for _, r := range rows {
		t.AddRow(itoa(r.N), f3(r.OneOut), f3(r.TwoOut), f3(r.ThreeOut))
	}
	t.Write(cfg.Out)
	return rows
}

// UndirectedRow reports the undirected 1-out heuristic on one graph class.
type UndirectedRow struct {
	Name     string
	N, Edges int
	Matched  int
	Frac     float64 // matched vertices / n
}

// Undirected runs the future-work extension on several graph classes.
func Undirected(cfg Config, n int) []UndirectedRow {
	cfg = cfg.Defaults()
	if n <= 0 {
		n = 200000
	}
	classes := []struct {
		name  string
		build func() *sparse.CSR
	}{
		{"er-d6", func() *sparse.CSR { return gen.SymmetricER(n, 6, cfg.Seed) }},
		{"ring", func() *sparse.CSR { return ring(n) }},
		{"mesh2d", func() *sparse.CSR { return gen.Mesh2D(isqrt(n), isqrt(n)) }},
		{"triangles", func() *sparse.CSR { return triangles(n) }},
	}
	var rows []UndirectedRow
	for _, c := range classes {
		a := c.build()
		g, err := undirected.New(a)
		if err != nil {
			panic(err)
		}
		res := g.Match(5, undirected.Options{Policy: par.Dynamic, Seed: cfg.Seed})
		rows = append(rows, UndirectedRow{
			Name: c.name, N: g.N(), Edges: a.NNZ() / 2,
			Matched: res.Size, Frac: 2 * float64(res.Size) / float64(g.N()),
		})
	}
	t := table{
		Title:   "Extension: undirected 1-out heuristic (conclusion's future work)",
		Headers: []string{"class", "n", "edges", "matched", "2|M|/n"},
	}
	for _, r := range rows {
		t.AddRow(r.Name, itoa(r.N), itoa(r.Edges), itoa(r.Matched), f3(r.Frac))
	}
	t.Write(cfg.Out)
	return rows
}

func ring(n int) *sparse.CSR {
	entries := make([]sparse.Coord, 0, 2*n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		entries = append(entries, sparse.Coord{I: int32(i), J: int32(j)},
			sparse.Coord{I: int32(j), J: int32(i)})
	}
	a, err := sparse.FromCOO(n, n, entries, false)
	if err != nil {
		panic(err)
	}
	return a
}

func triangles(n int) *sparse.CSR {
	entries := make([]sparse.Coord, 0, 3*n)
	add := func(u, v int) {
		entries = append(entries, sparse.Coord{I: int32(u), J: int32(v)},
			sparse.Coord{I: int32(v), J: int32(u)})
	}
	for i := 0; i+2 < n; i += 2 {
		add(i, i+1)
		add(i+1, i+2)
		add(i, i+2)
	}
	a, err := sparse.FromCOO(n, n, entries, false)
	if err != nil {
		panic(err)
	}
	return a
}

func isqrt(n int) int {
	x := 1
	for x*x < n {
		x++
	}
	return x
}
