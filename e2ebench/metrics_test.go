package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestMetricTablesMatchBenchmarkJSON keeps the metric and workload lists
// the benchmark prints in step with the BENCHMARK.json that declares them.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %s, the benchmark %s", i, w.Name, workloadNames[i])
		}
	}
	compare := func(kind string, declared []def, printed []metricDef, bounded bool) {
		if len(declared) != len(printed) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(printed))
		}
		for i, d := range declared {
			p := printed[i]
			if d.Name != p.name || d.Unit != p.unit || d.Better != p.better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], the benchmark %s [%s, %s]",
					kind, i, d.Name, d.Unit, d.Better, p.name, p.unit, p.better)
			}
			if (d.Bound != nil) != bounded {
				t.Errorf("%s %s: bound present = %v, want %v", kind, d.Name, d.Bound != nil, bounded)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
}

func TestFinishRejectsMissingAndUndeclaredMetrics(t *testing.T) {
	defs := []metricDef{{"a_ms", "ms", "lower"}, {"b", "count", "higher"}}
	if _, err := (metricValues{"a_ms": 1, "b": 2}).finish(defs); err != nil {
		t.Fatalf("complete set rejected: %v", err)
	}
	for name, mv := range map[string]metricValues{
		"missing":    {"a_ms": 1},
		"undeclared": {"a_ms": 1, "b": 2, "c": 3},
		"not finite": {"a_ms": 1, "b": math.NaN()},
	} {
		if _, err := mv.finish(defs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
