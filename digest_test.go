package bipartite

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/sparse"
)

// digestTable is the committed table of output digests that
// TestOutputDigests compares against. Each line is a graph, a run and the
// run's digest; lines starting with # are comments.
const digestTable = "testdata/digests.txt"

// digestGraph is one graph of the digest corpus.
type digestGraph struct {
	name     string // family/seed
	seed     uint64 // the graph's generator seed and every run's Spec seed
	a        *sparse.CSR
	weighted bool // run the auction only
}

// digestCorpus returns small versions of the five offline benchmark
// families (heavytail, roadnet21, rankdef, longthin, skewdeg), an
// Erdős–Rényi graph and a weighted Erdős–Rényi graph, each at seeds 1 to
// 3. longthin has no generator seed: its three entries differ only in the
// runs' seeds.
func digestCorpus() []digestGraph {
	const n = 4000
	families := []struct {
		name     string
		build    func(seed uint64) *sparse.CSR
		weighted bool
	}{
		{"heavytail", func(s uint64) *sparse.CSR { return gen.PowerLaw(n, 15, 1.35, n/2, s) }, false},
		{"roadnet21", func(s uint64) *sparse.CSR { return gen.RoadLike(2*n, 2.1, s) }, false},
		{"rankdef", func(s uint64) *sparse.CSR { return gen.RankDeficient(n, n*3/10, 6, s) }, false},
		{"longthin", func(uint64) *sparse.CSR { return gen.LongThinPath(n) }, false},
		{"skewdeg", func(s uint64) *sparse.CSR { return gen.SkewedDegree(n, n*4/5, 6, 3, s) }, false},
		{"er", func(s uint64) *sparse.CSR { return gen.ERAvgDeg(n, n, 6, s) }, false},
		{"er-weighted", func(s uint64) *sparse.CSR {
			return RandomER(n/2, n/2, 4, s).RandomWeights(WeightUniform, s).a
		}, true},
	}
	var out []digestGraph
	for _, f := range families {
		for seed := uint64(1); seed <= 3; seed++ {
			out = append(out, digestGraph{fmt.Sprintf("%s/%d", f.name, seed), seed, f.build(seed), f.weighted})
		}
	}
	return out
}

// digestRow is one line of the digest table.
type digestRow struct {
	graph, run, digest string
}

func (r digestRow) key() string { return r.graph + " " + r.run }

// outputDigests runs the corpus at widths 1, 2 and 4 of pool and returns
// one row per graph and run: the scalings at 5 and 3 iterations, every
// cardinality Algorithm under every Refinement, sampling from the default
// 5-iteration scaling, and the auction on the weighted graphs. Each width starts from a fresh Graph, so the scalings
// and every other per-Graph cache are computed at that width too. A run
// whose digest differs between widths is reported as an error;
// AlgKarpSipserParallel, the one Algorithm whose mates may depend on the
// width, runs at width 1 only.
func outputDigests(t *testing.T, pool *Pool) []digestRow {
	var rows []digestRow
	for _, dg := range digestCorpus() {
		var runs []string
		at := map[string]map[int]string{} // run -> width -> digest
		put := func(run string, w int, digest string) {
			if at[run] == nil {
				at[run] = map[int]string{}
				runs = append(runs, run)
			}
			at[run][w] = digest
		}
		for _, w := range []int{1, 2, 4} {
			g := newGraph(dg.a)
			opt := &Options{ScalingIterations: 5, Workers: w, Pool: pool}
			if dg.weighted {
				res, err := g.Match(Spec{Algorithm: AlgAuction, Seed: dg.seed}, opt)
				if err != nil {
					t.Fatalf("%s auction at width %d: %v", dg.name, w, err)
				}
				put("auction/none", w, matchingDigest(res.Matching))
				continue
			}
			for _, iters := range []int{5, 3} {
				sc, err := g.scaling(Options{ScalingIterations: iters, Workers: w, Pool: pool}, nil)
				if err != nil {
					t.Fatalf("%s scaling at width %d: %v", dg.name, w, err)
				}
				put(fmt.Sprintf("scaling/%d", iters), w, scalingDigest(sc))
			}
			for alg := Algorithm(0); alg < algCount; alg++ {
				if alg == AlgAuction || (alg == AlgKarpSipserParallel && w > 1) {
					continue
				}
				for ref := Refinement(0); ref < refineCount; ref++ {
					spec := Spec{Algorithm: alg, Seed: dg.seed, Refine: ref}
					res, err := g.Match(spec, opt)
					if err != nil {
						t.Fatalf("%s %v/%v at width %d: %v", dg.name, alg, ref, w, err)
					}
					put(alg.String()+"/"+ref.String(), w, matchingDigest(res.Matching))
				}
			}
		}
		for _, run := range runs {
			d := at[run][1]
			for _, w := range []int{2, 4} {
				if got, ok := at[run][w]; ok && got != d {
					t.Errorf("%s %s: width %d gives digest %s, width 1 gives %s", dg.name, run, w, got, d)
				}
			}
			rows = append(rows, digestRow{dg.name, run, d})
		}
	}
	return rows
}

// matchingDigest is the first 8 bytes, in hex, of the SHA-256 of a
// matching's Size, RowMate and ColMate.
func matchingDigest(m *Matching) string {
	h := sha256.New()
	hashInts(h, int64(m.Size), int64(len(m.RowMate)), int64(len(m.ColMate)))
	hashValue(h, m.RowMate)
	hashValue(h, m.ColMate)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// scalingDigest is the first 8 bytes, in hex, of the SHA-256 of every
// field of a Scaling, the floats as their IEEE 754 bits.
func scalingDigest(sc *Scaling) string {
	h := sha256.New()
	hashInts(h, int64(sc.Iterations))
	hashValue(h, sc.Error)
	for _, v := range [][]float64{sc.DR, sc.DC, sc.History, sc.RowSums, sc.ColSums} {
		hashInts(h, int64(len(v)))
		hashValue(h, v)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func hashInts(h hash.Hash, vs ...int64) { hashValue(h, vs) }

func hashValue(h hash.Hash, v any) {
	if err := binary.Write(h, binary.LittleEndian, v); err != nil {
		panic(err)
	}
}

// readDigestTable parses the committed table; leading whitespace is
// ignored, so a table pasted from a test log parses as it is.
func readDigestTable(t *testing.T) map[string]string {
	blob, err := os.ReadFile(digestTable)
	if err != nil {
		t.Logf("reading %s: %v", digestTable, err)
		return nil
	}
	want := map[string]string{}
	for i, line := range strings.Split(string(blob), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 3 {
			t.Fatalf("%s:%d: want graph, run and digest, got %q", digestTable, i+1, line)
		}
		want[f[0]+" "+f[1]] = f[2]
	}
	return want
}

// TestOutputDigests pins what the library computes: the digest of every
// Algorithm under every Refinement on a fixed corpus, at widths 1, 2 and 4,
// and of the scalings, must equal the committed table. A change that
// moves a bit on purpose replaces testdata/digests.txt with the table this
// test prints and lists the moved rows in CHANGES.md.
func TestOutputDigests(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the sweep about twentyfold; CI runs it without -race")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("the digests are pinned on amd64: Go fuses x*y+z into one FMA instruction on %s, which can move the scalings' bits", runtime.GOARCH)
	}
	pool := NewPool(4)
	defer pool.Close()
	rows := outputDigests(t, pool)
	want := readDigestTable(t)

	var moved []string
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.key()] = true
		if w, ok := want[r.key()]; !ok {
			moved = append(moved, fmt.Sprintf("%s: new row, digest %s", r.key(), r.digest))
		} else if w != r.digest {
			moved = append(moved, fmt.Sprintf("%s: %s in the table, %s now", r.key(), w, r.digest))
		}
	}
	for _, k := range slices.Sorted(maps.Keys(want)) {
		if !seen[k] {
			moved = append(moved, fmt.Sprintf("%s: in the table, no longer computed", k))
		}
	}
	if len(moved) == 0 {
		return
	}
	var table strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&table, "%s %s %s\n", r.graph, r.run, r.digest)
	}
	t.Errorf("%d of %d rows differ from %s:\n%s\n\nthe full table as computed now:\n%s",
		len(moved), len(rows), digestTable, strings.Join(moved, "\n"), table.String())
}
