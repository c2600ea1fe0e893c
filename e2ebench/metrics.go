package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric. The lists below must match
// BENCHMARK.json (TestMetricTablesMatchBenchmarkJSON enforces it): an
// untraced run prints every endToEnd metric, a traced run every perLayer
// metric, on every workload.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees. Each is defined on
// every workload; the README gives the per-workload meaning.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"quality_mean", "ratio", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
}

// perLayer are the traced run's layer metrics. Times that only some
// workloads spend are reported as shares of the op or request time (unit
// "%"), so a layer a workload never enters reads 0 rather than a
// meaningless duration.
var perLayer = []metricDef{
	// Kernels, per call of the public function.
	{"scale.ms", "ms", "lower"},
	{"scale.iters", "count", "lower"},
	{"scale.bytes_computed", "B", "lower"},
	{"core.sample_ms", "ms", "lower"},
	{"core.choice_ms", "ms", "lower"},
	{"ks.karpsipser_ms", "ms", "lower"},
	{"ks.decode_ms", "ms", "lower"},
	{"exact.phases", "count", "lower"},
	{"exact.augmented", "count", "lower"},
	{"exact.graft_frac", "ratio", "lower"},
	{"auction.rounds", "count", "lower"},
	// Shares of the op (offline) or request (serving) time.
	{"scale.pct", "%", "lower"},
	{"core.pct", "%", "lower"},
	{"core.onesided_pct", "%", "lower"},
	{"ks.pct", "%", "lower"},
	{"exact.pct", "%", "lower"},
	{"auction.pct", "%", "lower"},
	{"session.pct", "%", "lower"},
	{"server.pct", "%", "lower"},
	{"server.queue_pct", "%", "lower"},
	{"servehttp.pct", "%", "lower"},
	{"cluster.pct", "%", "lower"},
	{"dyn.patch_pct", "%", "lower"},
	{"loadgen.conn_wait_pct", "%", "lower"},
	// Session, server, dynamic, HTTP and router counters.
	{"session.run_ms", "ms", "lower"},
	{"session.allocs_per_run", "count", "lower"},
	{"session.cold_frac", "ratio", "lower"},
	{"server.batch_mean", "count", "higher"},
	{"server.shed", "count", "lower"},
	{"server.degraded", "count", "lower"},
	{"server.rejected", "count", "lower"},
	{"dyn.augments_mean", "count", "lower"},
	{"dyn.rescaled_frac", "ratio", "lower"},
	{"servehttp.req_bytes", "B", "lower"},
	{"servehttp.resp_bytes", "B", "lower"},
	{"cluster.retries", "count", "lower"},
	{"cluster.hedges", "count", "lower"},
	{"cluster.hedge_wins", "count", "higher"},
	{"cluster.migrations", "count", "lower"},
	{"cluster.fanouts", "count", "lower"},
	// What the caller sees beyond the end-to-end metrics: the median and
	// tail of the op or request times and the unloaded (Workers: 1 or one
	// at a time) median, which on a shared host do not repeat within an
	// end-to-end bound, and the highest rate-ladder step that passes.
	{"client.p50_ms", "ms", "lower"},
	{"client.tail_ms", "ms", "lower"},
	{"client.serial_p50_ms", "ms", "lower"},
	{"serve.max_rate_rps", "1/s", "higher"},
	// The benchmark process itself, and the trace's own validity.
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.coverage_min", "ratio", "higher"},
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// metricValues collects a run's metric values by name; finish attaches the
// units and checks that exactly the wanted set was produced.
type metricValues map[string]float64

// finish converts the values into the reported metric map for defs,
// failing on a missing, extra or non-finite metric: a benchmark that
// silently drops a metric would let a regression in it pass unnoticed.
func (mv metricValues) finish(defs []metricDef) (map[string]Metric, error) {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		v, ok := mv[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.name, v)
		}
		out[d.name] = Metric{Value: v, Unit: d.unit}
	}
	if len(mv) != len(defs) {
		var extra []string
		for name := range mv {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics measured but not declared: %v", extra)
	}
	return out, nil
}

// zeroLayers sets every count, ratio or share the workload does not
// exercise to 0, so each workload's traced run reports the full declared
// set. Durations are left alone: every workload must measure each of them,
// and finish rejects one that is missing.
func (mv metricValues) zeroLayers() {
	for _, d := range perLayer {
		if _, ok := mv[d.name]; !ok && d.unit != "ms" && d.unit != "s" {
			mv[d.name] = 0
		}
	}
}
