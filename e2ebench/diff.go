package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json a comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadBenchSpec(path string) (benchSpec, error) {
	var spec benchSpec
	blob, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// Verdicts of one (workload, metric) comparison.
const (
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// minGainPairs is the number of pairs a gain needs.
const minGainPairs = 10

// comparison is the verdict for one (workload, metric) over paired runs:
// base[i] and head[i] ran back to back.
type comparison struct {
	workload, metric string
	base, head       [3]float64 // quartiles; [1] is the median
	pairs, wins      int
	verdict          string
}

// judge applies the benchmark's rule to paired runs of one metric:
//
//   - unresolved: the base's own spread (interquartile range over its
//     median) exceeds the bound, unless every head run beats every base run;
//   - regression: the head's median is worse than the base's by more than
//     the bound, as a share of the base's median;
//   - gain: at least minGainPairs pairs, the head wins nine tenths of them
//     (ties count for neither side), and the medians differ by more than
//     the base's interquartile range;
//   - unchanged otherwise.
func judge(base, head []float64, better string, bound float64) comparison {
	c := comparison{base: quartiles(base), head: quartiles(head), pairs: min(len(base), len(head))}
	sign := 1.0 // positive deltas are improvements
	if better == "lower" {
		sign = -1
	}
	for i := 0; i < c.pairs; i++ {
		if sign*(head[i]-base[i]) > 0 {
			c.wins++
		}
	}
	medA, medB := c.base[1], c.head[1]
	scale := math.Abs(medA)
	if scale == 0 {
		scale = 1
	}
	iqr := c.base[2] - c.base[0]
	allBetter := len(base) > 0 && len(head) > 0
	for _, b := range head {
		for _, a := range base {
			if sign*(b-a) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case iqr/scale > bound && !allBetter:
		c.verdict = verdictUnresolved
	case -sign*(medB-medA)/scale > bound:
		c.verdict = verdictRegression
	case c.pairs >= minGainPairs && 10*c.wins >= 9*c.pairs && sign*(medB-medA) > iqr:
		c.verdict = verdictGain
	default:
		c.verdict = verdictUnchanged
	}
	return c
}

// compareResults pairs the untraced runs of two results files workload by
// workload, in file order, and judges every end-to-end metric.
func compareResults(spec benchSpec, base, head []record) []comparison {
	byWorkload := func(recs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range recs {
			if r.Trace == 0 {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	a, b := byWorkload(base), byWorkload(head)
	var out []comparison
	for _, w := range workloadNames {
		ra, rb := a[w], b[w]
		n := min(len(ra), len(rb))
		if n == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				va[i] = ra[i].Result.Metrics[m.Name].Value
				vb[i] = rb[i].Result.Metrics[m.Name].Value
			}
			c := judge(va, vb, m.Better, m.Bound)
			c.workload, c.metric = w, m.Name
			out = append(out, c)
		}
	}
	return out
}

// diffMain is the diff subcommand: it compares a parent's results file
// with a change's and exits 1 when any metric regressed, 2 on a usage or
// environment error.
func diffMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench diff [-bench BENCHMARK.json] PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	spec, err := loadBenchSpec(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench diff: %v\n", err)
		return 2
	}
	envA, recsA, err := readResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench diff: %v\n", err)
		return 2
	}
	envB, recsB, err := readResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench diff: %v\n", err)
		return 2
	}
	if !envA.sameHardware(envB) {
		fmt.Fprintf(os.Stderr, "e2ebench diff: refusing to compare runs from different environments:\n  %+v\n  %+v\n", envA, envB)
		return 2
	}
	fmt.Fprintf(w, "base %s, change %s, on %d CPUs (%s), GOMAXPROCS %d, %s\n",
		envA.Commit, envB.Commit, envA.NProc, envA.CPUModel, envA.GOMAXPROCS, envA.GoVersion)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\tchange median [q1, q3]\tchange\twins\tverdict")
	status := 0
	for _, c := range compareResults(spec, recsA, recsB) {
		delta := 0.0
		if c.base[1] != 0 {
			delta = 100 * (c.head[1] - c.base[1]) / math.Abs(c.base[1])
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%d/%d\t%s\n",
			c.workload, c.metric, c.base[1], c.base[0], c.base[2], c.head[1], c.head[0], c.head[2],
			delta, c.wins, c.pairs, c.verdict)
		if c.verdict == verdictRegression {
			status = 1
		}
	}
	if err := tw.Flush(); err != nil {
		return 2
	}
	return status
}
