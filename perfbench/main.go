// Command perfbench is the repository benchmark. It drives the
// partitioning flow from outside, through each layer's public functions,
// on one of three workloads:
//
//	table1_cold  greedy Table 1 flow (parse → system.EvaluateCtx), nothing cached
//	search_warm  frontier and exact search tiers over a warm memostore
//	serve_mix    open-loop request stream against an in-process lppartd
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload table1_cold --seed 1 --seconds 30 --trace 0
//
// Every operation's output is checked. The last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}; correct
// means every operation succeeded with a checked, correct output. With
// --trace 0 it carries the end-to-end metrics, with --trace 1 the
// per-layer metrics of a traced run, whose spans are written under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	run      time.Duration
	trace    bool
	out      string // directory for spans, stores and reports
	dataDir  string // directory holding golden.json and invariants.json
}

// metric is one named, unit-carrying number of a run.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted int64
	failed    int64 // failed, refused or wrong-output operations
	wrong     int64 // the subset of failed whose output was checked and wrong
	invalid   string
	notes     []string
	metrics   []metric
}

func (o *outcome) add(name string, value float64, unit string) {
	o.metrics = append(o.metrics, metric{name, value, unit})
}

var workloads = map[string]func(*options) (*outcome, error){
	"table1_cold": runTable1,
	"search_warm": runSearch,
	"serve_mix":   runServe,
}

func main() {
	var o options
	var secs, tr int
	flag.StringVar(&o.workload, "workload", "", "table1_cold, search_warm or serve_mix")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	flag.IntVar(&secs, "seconds", 35, "length of the measured window")
	flag.IntVar(&tr, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for spans, stores and reports")
	flag.StringVar(&o.dataDir, "data", "perfbench", "directory holding golden.json and invariants.json")
	flag.Parse()
	o.run = time.Duration(secs) * time.Second
	o.trace = tr == 1
	run, ok := workloads[o.workload]
	if !ok || secs < 1 || (tr != 0 && tr != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload table1_cold|search_warm|serve_mix, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatal(err)
	}
	res, err := run(&o)
	if err != nil {
		fatal(err)
	}
	printResult(&o, res)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printResult prints every metric by name and unit, then the one-line JSON
// result that ends the output.
func printResult(o *options, res *outcome) {
	mode := "end-to-end"
	if o.trace {
		mode = "per-layer (traced run)"
	}
	fmt.Printf("workload %s seed %d: %s metrics\n", o.workload, o.seed, mode)
	for _, m := range res.metrics {
		fmt.Printf("  %-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	errFrac := 0.0
	if res.attempted > 0 {
		errFrac = float64(res.failed) / float64(res.attempted)
	}
	fmt.Printf("  %-28s %14.6g ratio  (%d failed of %d attempted, %d wrong outputs)\n",
		"error_frac", errFrac, res.failed, res.attempted, res.wrong)
	for _, n := range res.notes {
		fmt.Printf("  %s\n", n)
	}
	if res.invalid != "" {
		fmt.Printf("  run INVALID: %s\n", res.invalid)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jm, len(res.metrics))
	for _, m := range res.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ms[m.name] = jm{v, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{res.failed == 0 && res.invalid == "" && res.attempted > 0, res.attempted, res.failed, ms})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// sloLimit is the latency limit behind slo_frac.
const sloLimit = 250 * time.Millisecond

// setupReps is how many times a run performs its set-up; setup_s is the
// median, so one slow repetition (cold page cache, first GC cycles) does
// not move it.
const setupReps = 5

// repeatSetup runs setup setupReps times, tearing down all but the last
// result, and returns the kept result with the median set-up time.
func repeatSetup[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var kept T
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return kept, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupReps-1 && teardown != nil {
			teardown(v)
		}
		kept = v
	}
	return kept, median(times), nil
}

// loopStats is the record of one closed or open loop.
type loopStats struct {
	lat     []float64 // per-operation latency, ms
	ok      int64     // operations answered correctly
	inSLO   int64     // correct operations within sloLimit
	elapsed time.Duration
	mallocs uint64
	busy    time.Duration // summed operation time (traced-overhead base)
}

// closedLoop runs op back to back, one client, until d has passed. op
// returns whether the operation succeeded with a correct output.
func closedLoop(d time.Duration, op func(i int) bool) *loopStats {
	st := &loopStats{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		t0 := time.Now()
		good := op(i)
		dt := time.Since(t0)
		st.busy += dt
		st.lat = append(st.lat, ms(dt))
		if good {
			st.ok++
			if dt <= sloLimit {
				st.inSLO++
			}
		}
	}
	st.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	st.mallocs = m1.Mallocs - m0.Mallocs
	return st
}

// endToEnd appends the end-to-end metrics every workload reports.
func endToEnd(res *outcome, st *loopStats, setupS float64) {
	n := int64(len(st.lat))
	res.attempted = n
	res.failed = n - st.ok
	res.add("setup_s", setupS, "s")
	res.add("ops_per_s", float64(st.ok)/st.elapsed.Seconds(), "ops/s")
	res.add("p50_ms", quantile(st.lat, 0.50), "ms")
	res.add("p99_ms", quantile(st.lat, 0.99), "ms")
	res.add("ok_frac", frac(st.ok, n), "ratio")
	res.add("slo_frac", frac(st.inSLO, n), "ratio")
	res.add("allocs_per_op", float64(st.mallocs)/float64(max(n, 1)), "count")
	res.add("max_rss_mb", maxRSSMB(), "MB")
	beyond := n - int64(math.Ceil(0.99*float64(n)))
	res.notes = append(res.notes, fmt.Sprintf("%d operations timed, %d samples beyond p99", n, beyond))
	if beyond < 10 {
		res.notes = append(res.notes, "warning: fewer than 10 samples beyond p99; this host is slower than the run length was sized for")
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile is the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// maxRSSMB is the process's peak resident set.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runDir makes a fresh per-run scratch directory under o.out.
func runDir(o *options, name string) (string, error) {
	return os.MkdirTemp(o.out, name+"-")
}

// removeRunDir deletes a per-run scratch directory; a failure only leaves
// files in the build directory, so it is reported, not fatal.
func removeRunDir(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// readJSON / writeJSON load and store the benchmark's committed data files.
func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func dataPath(o *options, name string) string { return filepath.Join(o.dataDir, name) }
