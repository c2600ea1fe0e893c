// Command e2ebench is the repository's end-to-end benchmark: four
// workloads that together exercise every layer of the matching system,
// from the paper's kernels to the cluster router, with every output
// checked. Build and run it through run.sh, which compiles this command
// and the servers it drives from the same checkout:
//
//	bash e2ebench/run.sh --workload offline-heuristic --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh --workload all --seed 1 --out set-a.jsonl
//	bash e2ebench/run.sh diff --bench BENCHMARK.json parent.jsonl change.jsonl
//
// An untraced run (--trace 0) prints every end-to-end metric; a traced run
// (--trace 1) prints every per-layer metric and writes its spans to a
// file. The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. See README.md for the workloads, the
// metrics and how to compare two commits.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"offline-heuristic", "offline-exact", "serve-direct", "serve-routed-rw"}

// runConfig is one run's settings.
type runConfig struct {
	ctx     context.Context
	seed    uint64
	seconds int
	bin     string // directory holding the matchserve and matchrouter binaries
	env     Env
}

// buildDir is where runs keep server logs and span files, inside the
// checkout.
const buildDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 20, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
	spans := fs.String("spans", "", "span file of a traced run (default .bench_build/spans/<workload>-seed<N>.json)")
	out := fs.String("out", "", "append the run's record to this results file (JSON lines, env header first)")
	bin := fs.String("bin", ".bench_build/bin", "directory holding the matchserve and matchrouter binaries")
	commit := fs.String("commit", "unknown", "commit the binaries were built from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	env := currentEnv(*commit)
	if fs.NArg() > 0 && fs.Arg(0) == "diff" {
		return diffMain(fs.Args()[1:], os.Stdout)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := runConfig{ctx: ctx, seed: *seed, seconds: *seconds, bin: *bin, env: env}

	if *workload == "all" {
		child := []string{"-seed", strconv.FormatUint(*seed, 10), "-seconds", strconv.Itoa(*seconds),
			"-trace", strconv.Itoa(*trace), "-bin", *bin, "-commit", *commit}
		if *out != "" {
			child = append(child, "-out", *out)
		}
		return runAll(ctx, child)
	}
	res, err := runWorkload(*workload, cfg, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *workload, err)
		return 1
	}
	if *out != "" {
		rec := record{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace, Result: res}
		if err := appendRecord(*out, env, rec); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			return 1
		}
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	if err := printResult(os.Stdout, *workload, res, defs); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process.
func runWorkload(name string, cfg runConfig, traced bool, spans string) (Result, error) {
	var tr *Tracer
	if traced {
		tr = newTracer()
	}
	var res Result
	var err error
	if w, ok := offlineWorkloads[name]; ok {
		if traced {
			res, err = traceOffline(w, cfg, tr)
		} else {
			res, err = runOffline(w, cfg)
		}
	} else if w, ok := serveWorkloads[name]; ok {
		res, err = runServe(w, cfg, tr)
	} else {
		return Result{}, fmt.Errorf("unknown workload (want one of %s, or all)", strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return Result{}, err
	}
	if traced {
		if spans == "" {
			spans = filepath.Join(buildDir, "spans", name+"-seed"+strconv.FormatUint(cfg.seed, 10)+".json")
		}
		if err := tr.write(spans, cfg.env, name, cfg.seed); err != nil {
			return Result{}, err
		}
		fmt.Fprintf(os.Stderr, "e2ebench: spans written to %s\n", spans)
	}
	return res, nil
}

// printResult prints each metric by name and unit, then the result as the
// last line.
func printResult(w io.Writer, workload string, res Result, defs []metricDef) error {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	for _, d := range defs {
		if m, ok := res.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-24s %14.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

// runAll runs every workload in its own child process with the given
// flags, one after another, and prints a combined result whose metric
// names are prefixed with the workload.
func runAll(ctx context.Context, base []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	total := Result{Correct: true, Metrics: map[string]Metric{}}
	status := 0
	for _, name := range workloadNames {
		cmd := exec.CommandContext(ctx, self, append([]string{"-workload", name}, base...)...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		os.Stdout.Write(stdout)
		var res Result
		if err == nil {
			err = json.Unmarshal(lastLine(stdout), &res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", name, err)
			status = 1
			total.Correct = false
			continue
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[name+"/"+k] = m
		}
	}
	blob, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", blob)
	if !total.Correct {
		status = 1
	}
	return status
}

func lastLine(b []byte) []byte {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return []byte(lines[len(lines)-1])
}

// record is one run in a results file.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Result   Result `json:"result"`
}

// envHeader is a results file's first line.
type envHeader struct {
	Env Env `json:"env"`
}

// appendRecord adds rec to the results file at path, writing the env
// header first when the file is new. A file holds one commit's runs on one
// machine, so appending from another environment is refused.
func appendRecord(path string, env Env, rec record) error {
	if existing, _, err := readResults(path); err == nil {
		if existing != env {
			return fmt.Errorf("results file %s was recorded under %+v, not %+v", path, existing, env)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	} else {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		blob, err := json.Marshal(envHeader{Env: env})
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	blob, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(blob, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append to %s: %w", path, err)
	}
	return f.Close()
}

// readResults reads a results file: its env header and its records.
func readResults(path string) (Env, []record, error) {
	f, err := os.Open(path)
	if err != nil {
		return Env{}, nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return Env{}, nil, fmt.Errorf("%s: empty results file", path)
	}
	var hdr envHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Env.GoVersion == "" {
		return Env{}, nil, fmt.Errorf("%s: first line is not an env header", path)
	}
	var recs []record
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return Env{}, nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return Env{}, nil, fmt.Errorf("%s: %w", path, err)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Workload < recs[j].Workload })
	return hdr.Env, recs, nil
}
