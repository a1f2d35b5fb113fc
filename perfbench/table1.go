package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"lppart/internal/apps"
	"lppart/internal/behav"
	"lppart/internal/cdfg"
	"lppart/internal/interp"
	"lppart/internal/partition"
	"lppart/internal/report"
	"lppart/internal/system"
	"lppart/internal/tech"
)

// golden maps application → SHA-256 of its report.Table1 rows.
type golden map[string]string

func table1Digest(ev *system.Evaluation) string {
	sum := sha256.Sum256([]byte(report.Table1([]*system.Evaluation{ev})))
	return hex.EncodeToString(sum[:])
}

func loadGolden(o *options) (golden, error) {
	g := golden{}
	if err := readJSON(dataPath(o, "golden.json"), &g); err != nil {
		return nil, fmt.Errorf("golden Table 1 digests: %w", err)
	}
	return g, nil
}

// appOrder is the seeded round-robin order of the six applications.
func appOrder(seed int64) []apps.App {
	all := apps.All()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all
}

// evaluateApp is one table1_cold operation: the greedy Table 1 flow from
// source text, nothing cached.
func evaluateApp(ctx context.Context, a apps.App) (*system.Evaluation, error) {
	src, err := behav.Parse(a.Name, a.Source)
	if err != nil {
		return nil, err
	}
	return system.EvaluateCtx(ctx, src, system.Config{})
}

// runTable1 is the table1_cold workload: one closed-loop client
// round-robins the six applications through behav.Parse and
// system.EvaluateCtx. Measurement and co-simulation (interp, ISS, caches,
// codegen) carry the work; the search tiers do none.
func runTable1(o *options) (*outcome, error) {
	ctx := context.Background()
	order := appOrder(o.seed)
	want, err := loadGolden(o)
	if err != nil {
		return nil, err
	}

	// Set-up is code warm-up: every application once, checked against
	// the golden digests. A mismatch names the digest this code produces,
	// for a maintainer who changes the Table 1 rows on purpose to copy
	// into golden.json.
	_, setupS, err := repeatSetup(func() (struct{}, error) {
		for _, a := range order {
			ev, err := evaluateApp(ctx, a)
			if err != nil {
				return struct{}{}, fmt.Errorf("warm-up %s: %w", a.Name, err)
			}
			if got := table1Digest(ev); got != want[a.Name] {
				return struct{}{}, fmt.Errorf("warm-up %s: Table 1 rows differ from golden.json (digest now %s)", a.Name, got)
			}
		}
		return struct{}{}, nil
	}, nil)
	if err != nil {
		return nil, err
	}

	res := &outcome{}
	check := func(a apps.App, ev *system.Evaluation, err error) bool {
		if err != nil {
			fmt.Printf("  %s: %v\n", a.Name, err)
			return false
		}
		if table1Digest(ev) != want[a.Name] {
			res.wrong++
			fmt.Printf("  %s: Table 1 rows differ from golden.json\n", a.Name)
			return false
		}
		return true
	}
	plain := func(i int) bool {
		a := order[i%len(order)]
		ev, err := evaluateApp(ctx, a)
		return check(a, ev, err)
	}
	if !o.trace {
		st := closedLoop(o.run, plain)
		endToEnd(res, st, setupS)
		return res, nil
	}

	// Traced run: alternate rounds of the six applications run untraced
	// (the overhead base) and with spans around every layer call.
	tr := newTracer()
	pr := &table1Probe{tr: tr, first: map[string]map[string]float64{}}
	sl := &splitLoop{round: len(order), plain: plain, traced: func(i int) bool {
		a := order[i%len(order)]
		ev, err := pr.op(ctx, int64(i), a)
		return check(a, ev, err)
	}}
	traced := closedLoop(o.run, sl.op)
	res.attempted = int64(len(traced.lat))
	res.failed = res.attempted - traced.ok
	vals, inv, err := pr.layerValues()
	if err != nil {
		return nil, err
	}
	sl.overhead(vals, tr, "table1.op")
	drift, err := checkInvariance(o, inv)
	if err != nil {
		return nil, err
	}
	vals["invariance.drift"] = float64(drift)
	reportLayers(res, vals)
	return res, tr.write(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
}

// table1Probe is the traced table1_cold operation. The op span repeats the
// untraced operation split at its public seams (parse, build, evaluate);
// a probe span then re-runs the measurement pieces one by one — interp,
// compile, trace recording, measure, greedy partitioning — so each can be
// timed alone. The probe is outside the op span, so the traced-vs-untraced
// comparison sees only the op.
type table1Probe struct {
	tr *tracer
	// first holds each application's exact counts from its first op;
	// later ops must reproduce them.
	first map[string]map[string]float64
	// per-op samples
	steps, fetches, traceBytes, scans []float64
	binds, memoHits                   []float64
	unstable                          []string
}

func (p *table1Probe) op(ctx context.Context, op int64, a apps.App) (*system.Evaluation, error) {
	tr := p.tr
	root := tr.begin("table1.op", op, -1)
	var (
		src *behav.Program
		ir  *cdfg.Program
		ev  *system.Evaluation
		err error
	)
	tr.do("behav.parse", op, root, func() { src, err = behav.Parse(a.Name, a.Source) })
	if err == nil {
		tr.do("cdfg.build", op, root, func() { ir, err = cdfg.Build(src) })
	}
	if err == nil {
		tr.do("system.evaluate_ir", op, root, func() { ev, err = system.EvaluateIRCtx(ctx, ir, system.Config{}) })
	}
	tr.end(root)
	if err != nil {
		return nil, err
	}

	probe := tr.begin("table1.probe", op, -1)
	defer tr.end(probe)
	cfg := system.Config{}
	cfg.Part.Lib = tech.Default()
	var ires *interp.Result
	tr.do("interp.run", op, probe, func() {
		ires, err = interp.Run(ir, interp.Options{CollectProfile: true})
	})
	if err != nil {
		return nil, fmt.Errorf("probe interp: %w", err)
	}
	rt, err := recordTrace(ctx, tr, op, probe, ir, cfg)
	if err != nil {
		return nil, err
	}
	var (
		mev  *system.Evaluation
		base *partition.Baseline
	)
	tr.do("system.measure", op, probe, func() { mev, base, err = system.MeasureInitialCtx(ctx, ir, cfg) })
	if err != nil {
		return nil, fmt.Errorf("probe measure: %w", err)
	}
	tr.do("partition.greedy", op, probe, func() { _, err = partition.PartitionCtx(ctx, ir, mev.Profile, base, cfg.Part) })
	if err != nil {
		return nil, fmt.Errorf("probe greedy: %w", err)
	}

	counts := map[string]float64{
		"interp.steps":    float64(ires.Steps),
		"iss.instrs":      float64(ev.Initial.ISS.Instrs),
		"iss.cycles":      float64(ev.Initial.ISS.Cycles),
		"cache.i_misses":  float64(ev.Initial.IStats.Misses),
		"cache.i_access":  float64(ev.Initial.IStats.Accesses),
		"cache.d_misses":  float64(ev.Initial.DStats.Misses),
		"cache.d_access":  float64(ev.Initial.DStats.Accesses),
		"trace.accesses":  float64(rt.Len()),
		"partition.binds": float64(ev.Decision.Memo.Binds),
		"savings_err_pp":  math.Abs(ev.Savings() - a.PaperSavings),
	}
	if f, ok := p.first[a.Name]; !ok {
		p.first[a.Name] = counts
	} else {
		for k, v := range counts {
			if !sameCount(f[k], v) {
				p.unstable = append(p.unstable, a.Name+" "+k)
			}
		}
	}
	p.steps = append(p.steps, float64(ires.Steps))
	fetches, _, _ := rt.Counts()
	p.fetches = append(p.fetches, float64(fetches))
	p.traceBytes = append(p.traceBytes, float64(rt.Bytes()))
	p.scans = append(p.scans, float64(rt.Scans()))
	p.binds = append(p.binds, float64(ev.Decision.Memo.Binds))
	p.memoHits = append(p.memoHits, float64(ev.Decision.Memo.Hits))
	return ev, nil
}

// layerValues turns the spans and samples into the per-layer metrics and
// the six-application invariant counts.
func (p *table1Probe) layerValues() (map[string]float64, map[string]float64, error) {
	if len(p.first) != len(apps.All()) {
		return nil, nil, fmt.Errorf("traced run covered %d of %d applications; lengthen --seconds", len(p.first), len(apps.All()))
	}
	if len(p.unstable) > 0 {
		return nil, nil, fmt.Errorf("exact counts changed between ops of one application: %v", p.unstable)
	}
	ls := p.tr.layers()
	vals := map[string]float64{
		"behav.parse_ms":      ls["behav.parse"].MeanSelf(),
		"cdfg.build_ms":       ls["cdfg.build"].MeanSelf(),
		"codegen.compile_ms":  ls["codegen.compile"].MeanSelf(),
		"interp.run_ms":       ls["interp.run"].MeanSelf(),
		"system.measure_ms":   ls["system.measure"].MeanSelf(),
		"partition.greedy_ms": ls["partition.greedy"].MeanSelf(),
		"interp.steps":        mean(p.steps),
		"trace.bytes":         mean(p.traceBytes),
		"trace.scans":         mean(p.scans),
		"partition.binds":     mean(p.binds),
		"partition.memo_hits": mean(p.memoHits),
	}
	issLayer(vals, ls, mean(p.fetches))
	// system.cosim_ms: the evaluate time left after measure and greedy,
	// per op.
	ev := p.tr.durations("system.evaluate_ir")
	me := p.tr.durations("system.measure")
	gr := p.tr.durations("partition.greedy")
	var cosim []float64
	for op, d := range ev {
		cosim = append(cosim, d-me[op]-gr[op])
	}
	vals["system.cosim_ms"] = mean(cosim)

	inv := map[string]float64{}
	var iMiss, iAcc, dMiss, dAcc, errSum float64
	for _, c := range p.first {
		for _, k := range []string{"iss.instrs", "iss.cycles", "cache.i_misses", "cache.d_misses", "trace.accesses"} {
			inv[k] += c[k]
		}
		iMiss += c["cache.i_misses"]
		iAcc += c["cache.i_access"]
		dMiss += c["cache.d_misses"]
		dAcc += c["cache.d_access"]
		errSum += c["savings_err_pp"]
	}
	inv["model.savings_err_pp"] = errSum / float64(len(p.first))
	vals["iss.instrs"] = inv["iss.instrs"]
	vals["iss.cycles"] = inv["iss.cycles"]
	vals["cache.i_miss_rate"] = iMiss / iAcc
	vals["cache.d_miss_rate"] = dMiss / dAcc
	vals["model.savings_err_pp"] = inv["model.savings_err_pp"]
	vals["trace.accesses"] = inv["trace.accesses"]
	return vals, inv, nil
}
