package main

import (
	"context"
	"fmt"

	"lppart/internal/apps"
	"lppart/internal/cache"
	"lppart/internal/cdfg"
	"lppart/internal/dse"
	"lppart/internal/memostore"
	"lppart/internal/milp"
	"lppart/internal/report"
	"lppart/internal/system"
	"lppart/internal/tech"
)

// searchWorkers is the geometry fan-out of both search tiers: the lppart
// CLI default (-j 0), one concurrent geometry search per CPU, so the
// workload runs the shape users run. Outputs are identical at any worker
// count, and every op checks that.
const searchWorkers = 0

// searchApp is one application's warm-search fixture.
type searchApp struct {
	name     string
	ir       *cdfg.Program
	frontier string // cold, store-less report.Pareto text
	exact    string // cold, store-less report.Exact text
}

// searchFixture is what set-up leaves for the timed loop: the reference
// outputs and a memostore holding one cold exploration per application.
type searchFixture struct {
	apps  []searchApp
	store string
}

func searchConfig(st *memostore.Store) dse.Config {
	return dse.Config{Workers: searchWorkers, Store: st}
}

func exactConfig() milp.Config {
	return milp.Config{Workers: searchWorkers, Certificate: true}
}

// solveExact is the lppart -exact shape after Prepare: solve with
// certificates, re-check every certificate, render.
func solveExact(ctx context.Context, tr *tracer, op int64, parent int32, p *dse.Prep) (*milp.Result, string, error) {
	var (
		res *milp.Result
		err error
	)
	tr.do("milp.solve", op, parent, func() { res, err = milp.Solve(ctx, p, exactConfig()) })
	if err != nil {
		return nil, "", err
	}
	tr.do("milp.check", op, parent, func() {
		for _, o := range res.Optima {
			if err = milp.Check(o.Inst, o.Cert); err != nil {
				err = fmt.Errorf("certificate for geometry %dx%d sets: %w", o.Geom[0].Sets, o.Geom[1].Sets, err)
				return
			}
		}
	})
	if err != nil {
		return nil, "", err
	}
	var txt string
	tr.do("report.render", op, parent, func() { txt = report.Exact(res) })
	return res, txt, nil
}

// setupSearch computes the cold store-less reference outputs and fills a
// fresh memostore with one cold exploration per application.
func setupSearch(ctx context.Context, o *options, order []apps.App) (*searchFixture, error) {
	dir, err := runDir(o, "search-store")
	if err != nil {
		return nil, err
	}
	fx := &searchFixture{store: dir}
	st, err := memostore.Open(dir, memostore.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	for _, a := range order {
		ir, err := a.Build()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		sa := searchApp{name: a.Name, ir: ir}
		f, err := dse.Explore(ctx, ir, searchConfig(nil))
		if err != nil {
			return nil, fmt.Errorf("%s cold frontier: %w", a.Name, err)
		}
		sa.frontier = report.Pareto(f)
		p, err := dse.Prepare(ctx, ir, searchConfig(nil))
		if err != nil {
			return nil, fmt.Errorf("%s cold prepare: %w", a.Name, err)
		}
		if _, sa.exact, err = solveExact(ctx, nil, 0, -1, p); err != nil {
			return nil, fmt.Errorf("%s cold exact: %w", a.Name, err)
		}
		wf, err := dse.Explore(ctx, ir, searchConfig(st))
		if err != nil {
			return nil, fmt.Errorf("%s store population: %w", a.Name, err)
		}
		if report.Pareto(wf) != sa.frontier {
			return nil, fmt.Errorf("%s: frontier with a store differs from the store-less one", a.Name)
		}
		fx.apps = append(fx.apps, sa)
	}
	return fx, st.Close()
}

// searchCounts is one warm op's work report.
type searchCounts struct {
	frontier            bool
	dse                 dse.Stats
	nodes, exp, pruned  int64
	records, skipped    int64
	deltaHits, deltaAll int64
}

// searchOp is one search_warm operation: the lppart -frontier -store
// shape (open, explore, render) or the lppart -exact -store shape (open,
// prepare, solve, check, render). The frontier shape calls Explore's two
// public halves, Prepare and ExplorePrep, so the traced run can time each;
// together they are exactly dse.Explore.
func searchOp(ctx context.Context, tr *tracer, op int64, sa *searchApp, dir string, exact bool) (string, *searchCounts, error) {
	name := "search.frontier"
	if exact {
		name = "search.exact"
	}
	root := tr.begin(name, op, -1)
	defer tr.end(root)
	var (
		st  *memostore.Store
		err error
	)
	tr.do("memostore.open", op, root, func() { st, err = memostore.Open(dir, memostore.Options{}) })
	if err != nil {
		return "", nil, err
	}
	defer st.Close()
	c := &searchCounts{frontier: !exact, records: int64(st.Len()), skipped: st.Skipped()}
	cfg := searchConfig(st)
	var p *dse.Prep
	tr.do("dse.prepare", op, root, func() { p, err = dse.Prepare(ctx, sa.ir, cfg) })
	if err != nil {
		return "", nil, err
	}
	var txt string
	if exact {
		var res *milp.Result
		if res, txt, err = solveExact(ctx, tr, op, root, p); err != nil {
			return "", nil, err
		}
		for _, o := range res.Optima {
			c.nodes += o.Stats.Nodes
			c.exp += o.Stats.Expanded
			c.pruned += o.Stats.Pruned
		}
	} else {
		var f *dse.Frontier
		tr.do("dse.explore", op, root, func() { f, err = dse.ExplorePrep(ctx, p, cfg) })
		if err != nil {
			return "", nil, err
		}
		tr.do("report.render", op, root, func() { txt = report.Pareto(f) })
		c.dse = f.Stats
	}
	ds := p.Delta.Stats()
	c.deltaHits, c.deltaAll = ds.Hits, ds.Hits+ds.Misses
	return txt, c, nil
}

// runSearch is the search_warm workload: one closed-loop client; set-up
// populates a memostore with one cold exploration per application, then
// each op visits the next application (seeded round-robin), alternating
// per application between the frontier and the exact shape. The
// measurement phase replays from the store, so pricing, schedule/bind and
// the two search tiers carry the work.
func runSearch(o *options) (*outcome, error) {
	ctx := context.Background()
	order := appOrder(o.seed)
	fx, setupS, err := repeatSetup(func() (*searchFixture, error) { return setupSearch(ctx, o, order) },
		func(fx *searchFixture) { removeRunDir(fx.store) })
	if err != nil {
		return nil, err
	}
	defer removeRunDir(fx.store)

	res := &outcome{}
	n := len(fx.apps)
	var counts []*searchCounts
	op := func(tr *tracer) func(i int) bool {
		return func(i int) bool {
			sa := &fx.apps[i%n]
			exact := (i/n)%2 == 1
			txt, c, err := searchOp(ctx, tr, int64(i), sa, fx.store, exact)
			if err != nil {
				fmt.Printf("  %s: %v\n", sa.name, err)
				return false
			}
			want := sa.frontier
			if exact {
				want = sa.exact
			}
			if txt != want {
				res.wrong++
				fmt.Printf("  %s: warm output differs from the cold store-less output\n", sa.name)
				return false
			}
			if tr != nil && len(counts) < 2*n {
				counts = append(counts, c)
			}
			return true
		}
	}
	if !o.trace {
		endToEnd(res, closedLoop(o.run, op(nil)), setupS)
		return res, nil
	}

	// Traced run: alternate rounds of both shapes over the six
	// applications run untraced and traced.
	tr := newTracer()
	vals := map[string]float64{}
	if err := searchSetupProbe(ctx, tr, fx, vals); err != nil {
		return nil, err
	}
	sl := &splitLoop{round: 2 * n, plain: op(nil), traced: op(tr)}
	traced := closedLoop(o.run, sl.op)
	res.attempted = int64(len(traced.lat))
	res.failed = res.attempted - traced.ok
	if len(counts) < 2*n {
		return nil, fmt.Errorf("traced run covered %d of %d (application, shape) pairs; lengthen --seconds", len(counts), 2*n)
	}
	ls := tr.layers()
	for k, span := range map[string]string{
		"memostore.open_ms": "memostore.open", "dse.prepare_ms": "dse.prepare",
		"dse.explore_ms": "dse.explore", "milp.solve_ms": "milp.solve",
		"milp.check_ms": "milp.check", "report.render_ms": "report.render",
	} {
		vals[k] = ls[span].MeanSelf()
	}
	inv := map[string]float64{"trace.accesses": vals["trace.accesses"]}
	var dHits, dAll int64
	for _, c := range counts {
		vals["memostore.records"] = float64(c.records)
		vals["memostore.skipped"] = float64(c.skipped)
		dHits += c.deltaHits
		dAll += c.deltaAll
		if c.frontier {
			inv["dse.configs"] += float64(c.dse.Configs)
			inv["dse.pruned"] += float64(c.dse.Pruned)
			inv["dse.pair_evals"] += float64(c.dse.PairEvals)
			inv["dse.memo_adds"] += float64(c.dse.MemoAdds)
		} else {
			inv["milp.nodes"] += float64(c.nodes)
			vals["milp.expanded"] += float64(c.exp)
			vals["milp.pruned"] += float64(c.pruned)
		}
	}
	for _, k := range []string{"dse.configs", "dse.pruned", "dse.pair_evals", "dse.memo_adds", "milp.nodes"} {
		vals[k] = inv[k]
	}
	vals["dse.prune_frac"] = inv["dse.pruned"] / (inv["dse.configs"] + inv["dse.pruned"])
	vals["partition.delta_hit_frac"] = frac(dHits, dAll)
	sl.overhead(vals, tr, "search.frontier", "search.exact")
	drift, err := checkInvariance(o, inv)
	if err != nil {
		return nil, err
	}
	vals["invariance.drift"] = float64(drift)
	reportLayers(res, vals)
	return res, tr.write(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
}

// searchSetupProbe times what a cold exploration does before the search
// (and what set-up pays once per application): one trace recording and
// the single-pass stack-distance sweep over the anchor plus
// dse.DefaultGeometries, as dse.Prepare runs them.
func searchSetupProbe(ctx context.Context, tr *tracer, fx *searchFixture, vals map[string]float64) error {
	lib := tech.Default()
	pairs := [][2]cache.Config{{cache.DefaultICache(), cache.DefaultDCache()}}
	for _, g := range dse.DefaultGeometries() {
		g[1].WriteBack = true
		pairs = append(pairs, g)
	}
	var fetches, bytes, scans []float64
	for i := range fx.apps {
		sa := &fx.apps[i]
		op := int64(-1 - i)
		root := tr.begin("search.setup_probe", op, -1)
		rt, err := recordTrace(ctx, tr, op, root, sa.ir, system.Config{})
		if err == nil {
			tr.do("stackdist.sweep", op, root, func() { _, err = rt.SweepParallel(pairs, lib, searchWorkers) })
		}
		tr.end(root)
		if err != nil {
			return fmt.Errorf("%s: %w", sa.name, err)
		}
		f, _, _ := rt.Counts()
		fetches = append(fetches, float64(f))
		bytes = append(bytes, float64(rt.Bytes()))
		scans = append(scans, float64(rt.Scans()))
		vals["trace.accesses"] += float64(rt.Len())
	}
	ls := tr.layers()
	issLayer(vals, ls, mean(fetches))
	vals["codegen.compile_ms"] = ls["codegen.compile"].MeanSelf()
	for _, f := range fetches {
		vals["iss.instrs"] += f
	}
	vals["stackdist.sweep_ms"] = ls["stackdist.sweep"].MeanSelf()
	vals["trace.bytes"] = mean(bytes)
	vals["trace.scans"] = mean(scans)
	return nil
}
