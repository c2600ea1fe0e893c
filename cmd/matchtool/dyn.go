package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	bipartite "repro"
)

// runDyn is the `matchtool dyn` subcommand: it opens a dynamic session on
// a Matrix Market graph and replays a mutation trace against it, batch by
// batch, reporting the incremental-maintenance provenance after each one.
//
// Usage:
//
//	matchtool dyn -in graph.mtx -trace mutations.txt
//	matchtool dyn -in graph.mtx -trace - -refine none -quality
//
// The trace is line-oriented:
//
//   - i j    stage an edge insertion
//   - i j    stage an edge deletion
//     commit   apply the staged batch (deletes before inserts, atomically)
//     # ...    comment; blank lines are skipped
//
// A trailing partial batch at EOF is committed implicitly. "-trace -"
// reads the trace from stdin, so a driver can stream mutations into a
// long-lived session.
func runDyn(args []string) {
	fs := flag.NewFlagSet("matchtool dyn", flag.ExitOnError)
	var (
		in      = fs.String("in", "", "input MatrixMarket file (required)")
		trace   = fs.String("trace", "", "mutation trace file (required); '-' reads stdin")
		alg     = fs.String("alg", "twosided", "algorithm: onesided|twosided|ks|ksp|cheap-edge|cheap-vertex")
		refine  = fs.String("refine", "exact", "refinement: none keeps a heuristic session (targeted repair only); anything else maintains the exact maximum")
		iters   = fs.Int("iters", 5, "Sinkhorn-Knopp scaling iterations")
		seed    = fs.Uint64("seed", 1, "the Spec's RNG seed; 0 means 1")
		quality = fs.Bool("quality", false, "report sprank and quality after the trace (costs an exact run)")
	)
	fs.Parse(args)
	if *in == "" || *trace == "" {
		fmt.Fprintln(os.Stderr, "matchtool dyn: -in and -trace are required")
		fs.Usage()
		os.Exit(2)
	}
	g, err := bipartite.ReadMatrixMarket(*in)
	fail(err)
	algorithm, err := bipartite.ParseAlgorithm(canonicalAlg(*alg))
	fail(err)
	refinement, err := bipartite.ParseRefinement(*refine)
	fail(err)

	var src io.Reader = os.Stdin
	if *trace != "-" {
		f, err := os.Open(*trace)
		fail(err)
		defer f.Close()
		src = f
	}

	opt := &bipartite.Options{ScalingIterations: *iters}
	start := time.Now()
	sess, err := g.NewDynSession(bipartite.Spec{Algorithm: algorithm, Seed: *seed, Refine: refinement}, opt)
	fail(err)
	fmt.Printf("session: %d rows, %d cols, %d edges, initial size %d (%s)\n",
		sess.Rows(), sess.Cols(), sess.Edges(), sess.Size(), sessionKind(refinement))

	var inserts, deletes [][2]int
	batch := 0
	commit := func() {
		if len(inserts) == 0 && len(deletes) == 0 {
			return
		}
		batch++
		res, err := sess.Apply(inserts, deletes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "matchtool dyn: batch %d: %v\n", batch, err)
			os.Exit(1)
		}
		fmt.Printf("batch %d: +%d -%d freed %d augments %d size %d\n",
			batch, res.Inserted, res.Deleted, res.Freed, res.Augments, res.MaintainedSize)
		inserts, deletes = inserts[:0], deletes[:0]
	}

	sc := bufio.NewScanner(src)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		switch {
		case text == "" || strings.HasPrefix(text, "#"):
		case text == "commit":
			commit()
		default:
			fields := strings.Fields(text)
			if len(fields) != 3 || (fields[0] != "+" && fields[0] != "-") {
				fmt.Fprintf(os.Stderr, "matchtool dyn: %s:%d: want '+ i j', '- i j' or 'commit', got %q\n", *trace, line, text)
				os.Exit(2)
			}
			i, erri := strconv.Atoi(fields[1])
			j, errj := strconv.Atoi(fields[2])
			if erri != nil || errj != nil {
				fmt.Fprintf(os.Stderr, "matchtool dyn: %s:%d: bad endpoints in %q\n", *trace, line, text)
				os.Exit(2)
			}
			if fields[0] == "+" {
				inserts = append(inserts, [2]int{i, j})
			} else {
				deletes = append(deletes, [2]int{i, j})
			}
		}
	}
	fail(sc.Err())
	commit() // trailing partial batch
	elapsed := time.Since(start)

	snap := sess.Snapshot()
	if err := snap.ValidateMatching(sess.Matching()); err != nil {
		fmt.Fprintf(os.Stderr, "matchtool dyn: INVALID MAINTAINED MATCHING: %v\n", err)
		os.Exit(1)
	}
	st := sess.Stats()
	fmt.Printf("trace: %d batches, +%d -%d edges, %d freed, %d augments\n",
		st.Batches, st.Inserted, st.Deleted, st.Freed, st.Augments)
	fmt.Printf("final: %d edges, size %d, time %v\n", sess.Edges(), sess.Size(), elapsed)
	if *quality {
		sp := snap.Sprank()
		fmt.Printf("sprank: %d\nquality: %.4f\n", sp, float64(sess.Size())/float64(sp))
	}
}

func sessionKind(r bipartite.Refinement) string {
	if r == bipartite.RefineNone {
		return "heuristic, targeted repair"
	}
	return "exact, maintained maximum"
}
