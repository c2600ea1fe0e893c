// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Tables 1–3, Figures 3–5), the §4.1.1
// quality study, the Conjecture 1 evidence and the design ablations, and
// times the library's other tiers (perf, refine, dyn, weighted) on the
// same harness. Each experiment is defined here once; cmd/matchbench
// parses its flags and runs them. Every experiment prints its tables to
// Config.Out, and all but Perf and Refine also return their rows.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Config controls experiment sizes and output.
type Config struct {
	// Scale selects instance sizes: "tiny" (CI smoke), "small" (default,
	// minutes for the full suite) or "paper" (close to the paper's sizes
	// where memory allows).
	Scale string
	// Threads is the thread sweep for the speedup experiments.
	Threads []int
	// Runs is how many randomized repetitions the quality tables take
	// their minimum over (the paper uses 10).
	Runs int
	// Seed is the base RNG seed.
	Seed uint64
	// Out receives the formatted report.
	Out io.Writer
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.Scale == "" {
		c.Scale = "small"
	}
	if len(c.Threads) == 0 {
		c.Threads = []int{1, 2, 4, 8, 16}
	}
	if c.Runs <= 0 {
		c.Runs = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// timeBest runs f reps times and returns the fastest wall-clock duration —
// the standard way to suppress scheduling noise in speedup measurements.
// Every experiment times through it.
func timeBest(reps int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// table is a simple fixed-width text table used for all reports.
type table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Write renders the table.
func (t *table) Write(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	var sb strings.Builder
	for i, h := range t.Headers {
		fmt.Fprintf(&sb, "%-*s  ", widths[i], h)
	}
	fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	fmt.Fprintln(w, strings.Repeat("-", len(strings.TrimRight(sb.String(), " "))))
	for _, row := range t.Rows {
		sb.Reset()
		for i, c := range row {
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000.0)
}
