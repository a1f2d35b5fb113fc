package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric and workload it is expected to move. A traced run
// reports every entry; a layer the workload does not reach reads 0.
type layerMetric struct {
	name, unit, better, moves string
}

// layerMetrics is the per-layer table; BENCHMARK.json lists the same
// names, units and directions.
var layerMetrics = []layerMetric{
	{"behav.parse_ms", "ms", "lower", "p50_ms on table1_cold (slightly)"},
	{"cdfg.build_ms", "ms", "lower", "p50_ms on table1_cold (slightly)"},
	{"codegen.compile_ms", "ms", "lower", "p50_ms on table1_cold (slightly)"},
	{"interp.run_ms", "ms", "lower", "p50_ms/p99_ms on table1_cold; p99_ms on serve_mix"},
	{"interp.steps", "count", "lower", "p50_ms/p99_ms on table1_cold"},
	{"iss.run_ms", "ms", "lower", "p99_ms/ops_per_s on table1_cold; p99_ms on serve_mix"},
	{"iss.instrs", "count", "lower", "invariant: no host-speed change moves it"},
	{"iss.cycles", "count", "lower", "invariant: no host-speed change moves it"},
	{"iss.minstr_per_s", "Minstr/s", "higher", "p99_ms/ops_per_s on table1_cold; p99_ms on serve_mix"},
	{"cache.i_miss_rate", "ratio", "lower", "invariant: simulated statistic"},
	{"cache.d_miss_rate", "ratio", "lower", "invariant: simulated statistic"},
	{"model.savings_err_pp", "pp", "lower", "invariant: simulated statistic"},
	{"trace.accesses", "count", "lower", "setup_s on search_warm; p99_ms on serve_mix"},
	{"trace.bytes", "B", "lower", "setup_s on search_warm; p99_ms on serve_mix"},
	{"trace.scans", "count", "lower", "setup_s on search_warm; p99_ms on serve_mix"},
	{"stackdist.sweep_ms", "ms", "lower", "setup_s on search_warm; p99_ms on serve_mix (sweep misses)"},
	{"system.measure_ms", "ms", "lower", "p50_ms on table1_cold"},
	{"partition.greedy_ms", "ms", "lower", "p50_ms on table1_cold (3d, engine most)"},
	{"partition.binds", "count", "lower", "p50_ms on table1_cold"},
	{"partition.memo_hits", "count", "higher", "p50_ms on table1_cold"},
	{"system.cosim_ms", "ms", "lower", "p50_ms on table1_cold (3d, engine most)"},
	{"memostore.open_ms", "ms", "lower", "p50_ms on search_warm"},
	{"memostore.records", "count", "lower", "p50_ms on search_warm"},
	{"memostore.skipped", "count", "lower", "p50_ms on search_warm"},
	{"memostore.puts", "count", "lower", "p99_ms on serve_mix"},
	{"dse.prepare_ms", "ms", "lower", "ops_per_s/p50_ms/allocs_per_op on search_warm; none on table1_cold"},
	{"dse.explore_ms", "ms", "lower", "ops_per_s/p50_ms/allocs_per_op on search_warm; none on table1_cold"},
	{"dse.configs", "count", "lower", "ops_per_s/p50_ms on search_warm"},
	{"dse.pruned", "count", "higher", "ops_per_s/p50_ms on search_warm"},
	{"dse.pair_evals", "count", "lower", "ops_per_s/p50_ms on search_warm"},
	{"dse.memo_adds", "count", "lower", "ops_per_s/p50_ms/allocs_per_op on search_warm"},
	{"dse.prune_frac", "ratio", "higher", "ops_per_s/p50_ms on search_warm"},
	{"partition.delta_hit_frac", "ratio", "higher", "ops_per_s/p50_ms/allocs_per_op on search_warm"},
	{"milp.solve_ms", "ms", "lower", "p99_ms/ops_per_s on search_warm"},
	{"milp.nodes", "count", "lower", "p99_ms/ops_per_s on search_warm"},
	{"milp.expanded", "count", "lower", "p99_ms/ops_per_s on search_warm"},
	{"milp.pruned", "count", "higher", "p99_ms/ops_per_s on search_warm"},
	{"milp.check_ms", "ms", "lower", "p99_ms/ops_per_s on search_warm"},
	{"report.render_ms", "ms", "lower", "p99_ms/ops_per_s on search_warm"},
	{"serve.hit_p50_ms", "ms", "lower", "p50_ms/slo_frac on serve_mix"},
	{"serve.miss_p50_ms", "ms", "lower", "p99_ms/slo_frac on serve_mix"},
	{"serve.miss_p99_ms", "ms", "lower", "p99_ms/slo_frac on serve_mix"},
	{"serve.cache_hit_frac", "ratio", "higher", "p50_ms on serve_mix"},
	{"serve.cache_evictions", "count", "lower", "p50_ms on serve_mix"},
	{"serve.shed_frac", "ratio", "lower", "slo_frac on serve_mix"},
	{"serve.partition_mean_ms", "ms", "lower", "p99_ms on serve_mix"},
	{"serve.sweep_mean_ms", "ms", "lower", "p99_ms on serve_mix"},
	{"serve.queue_depth_max", "count", "lower", "p99_ms/slo_frac on serve_mix"},
	{"serve.workers_busy_frac", "ratio", "lower", "p99_ms/slo_frac on serve_mix"},
	{"client.retries", "count", "lower", "p99_ms/slo_frac on serve_mix"},
	{"gen.late_p99_ms", "ms", "lower", "validity of serve_mix (a late generator voids the run)"},
	{"trace.untraced_ops_per_s", "ops/s", "higher", "tracing overhead base"},
	{"trace.traced_ops_per_s", "ops/s", "higher", "tracing overhead"},
	{"trace.overhead_frac", "ratio", "lower", "tracing overhead"},
	{"invariance.drift", "count", "lower", "exact counts differing from invariants.json"},
}

// reportLayers appends every per-layer metric, in table order, taking
// values from vals (absent: 0).
func reportLayers(res *outcome, vals map[string]float64) {
	for _, m := range layerMetrics {
		res.add(m.name, vals[m.name], m.unit)
	}
	for name := range vals {
		if !knownLayer(name) {
			panic("perfbench: per-layer metric " + name + " missing from layerMetrics")
		}
	}
}

func knownLayer(name string) bool {
	for _, m := range layerMetrics {
		if m.name == name {
			return true
		}
	}
	return false
}

// invariants maps workload → exact count → committed value.
type invariants map[string]map[string]float64

// checkInvariance compares a traced run's exact counts with the committed
// ones, writes the report under o.out and returns how many drifted. The
// report prints every current count, for a maintainer who moves one on
// purpose to copy into invariants.json.
func checkInvariance(o *options, got map[string]float64) (int, error) {
	path := dataPath(o, "invariants.json")
	inv := invariants{}
	if err := readJSON(path, &inv); err != nil {
		return 0, fmt.Errorf("invariance: %w", err)
	}
	want := inv[o.workload]
	names := make([]string, 0, len(got)+len(want))
	for n := range got {
		names = append(names, n)
	}
	for n := range want {
		if _, ok := got[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	drift := 0
	report := fmt.Sprintf("invariance report: %s seed %d against %s\n", o.workload, o.seed, path)
	for _, n := range names {
		g, gok := got[n]
		w, wok := want[n]
		status := "ok"
		if !gok || !wok || !sameCount(g, w) {
			status = "DRIFT"
			drift++
		}
		report += fmt.Sprintf("  %-22s committed %-22s now %-22s %s\n", n, fmtCount(w, wok), fmtCount(g, gok), status)
	}
	fmt.Print(report)
	stem := fmt.Sprintf("%s-seed%d-invariance.txt", o.workload, o.seed)
	return drift, os.WriteFile(filepath.Join(o.out, stem), []byte(report), 0o644)
}

// sameCount compares exact counts; the one non-integer invariant
// (model.savings_err_pp) is compared to 1e-9 pp, below its print precision.
func sameCount(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

func fmtCount(v float64, ok bool) string {
	if !ok {
		return "absent"
	}
	return fmt.Sprintf("%.10g", v)
}
