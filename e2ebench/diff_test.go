package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func scaled(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	wide := []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}
	for _, c := range []struct {
		name       string
		base, head []float64
		better     string
		bound      float64
		want       string
	}{
		{"same runs", steady, steady, "lower", 0.1, verdictUnchanged},
		{"worse within the bound", steady, scaled(steady, 1.05), "lower", 0.1, verdictUnchanged},
		{"worse beyond the bound", steady, scaled(steady, 1.2), "lower", 0.1, verdictRegression},
		{"lower beyond the bound when higher is better", steady, scaled(steady, 0.8), "higher", 0.1, verdictRegression},
		{"better in every pair", steady, scaled(steady, 0.8), "lower", 0.1, verdictGain},
		{"better in every pair, higher is better", steady, scaled(steady, 1.2), "higher", 0.1, verdictGain},
		{"better, but too few pairs for a gain", steady[:5], scaled(steady[:5], 0.8), "lower", 0.1, verdictUnchanged},
		{"better by less than the base's spread", steady, scaled(steady, 0.99), "lower", 0.1, verdictUnchanged},
		{"base spread wider than the bound", wide, wide, "lower", 0.1, verdictUnresolved},
		{"base spread wide, change better than every base run", wide, scaled(steady, 0.1), "lower", 0.1, verdictGain},
	} {
		if got := judge(c.base, c.head, c.better, c.bound).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// writeResults writes a results file of one workload's untraced runs, one
// run per value of cpu_ms_per_op.
func writeResults(t *testing.T, path string, env Env, values []float64) {
	t.Helper()
	for i, v := range values {
		rec := record{Workload: "offline-heuristic", Seed: uint64(i + 1), Result: Result{Correct: true, Attempted: 1,
			Metrics: map[string]Metric{"cpu_ms_per_op": {Value: v, Unit: "ms"}}}}
		if err := appendRecord(path, env, rec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [{"name": "cpu_ms_per_op", "unit": "ms", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	env := Env{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", CPUModel: "test cpu", Commit: "aaa"}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	write := func(name string, env Env, v []float64) string {
		path := filepath.Join(dir, name)
		writeResults(t, path, env, v)
		return path
	}
	base := write("base.jsonl", env, steady)
	head := env
	head.Commit = "bbb-dirty" // another commit on the same machine compares
	same := write("same.jsonl", head, steady)
	slower := write("slower.jsonl", head, scaled(steady, 1.3))
	other := env
	other.NProc = 4
	elsewhere := write("elsewhere.jsonl", other, steady)

	for _, c := range []struct {
		name       string
		base, head string
		want       int
	}{
		{"no change", base, same, 0},
		{"regression", base, slower, 1},
		{"different hardware", base, elsewhere, 2},
		{"missing file", base, filepath.Join(dir, "none.jsonl"), 2},
	} {
		var out strings.Builder
		if got := diffMain([]string{"-bench", spec, c.base, c.head}, &out); got != c.want {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, got, c.want, out.String())
		}
	}
}

func TestAppendRecordRefusesOtherEnvironment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	env := Env{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", CPUModel: "test cpu", Commit: "aaa"}
	writeResults(t, path, env, []float64{1})
	env.Commit = "bbb"
	if err := appendRecord(path, env, record{Workload: "offline-exact"}); err == nil {
		t.Error("appended a run from another commit to a results file")
	}
	got, recs, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Commit != "aaa" || len(recs) != 1 {
		t.Errorf("file holds env %+v and %d records, want commit aaa and 1 record", got, len(recs))
	}
}
