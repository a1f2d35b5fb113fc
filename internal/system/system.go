// Package system evaluates whole designs: the µP core, instruction cache,
// data cache, main memory, bus and (for partitioned designs) ASIC cores,
// executing the application end to end and accounting every core's energy
// — "it is an important feature of our approach that all system
// components are taken into consideration to estimate energy savings"
// (paper §4). Its EvaluateCtx function runs the complete design flow of
// Fig. 5: profile → initial design measurement → partitioning →
// partitioned design co-simulation → verification.
package system

import (
	"context"
	"fmt"

	"lppart/internal/asic"
	"lppart/internal/behav"
	"lppart/internal/bus"
	"lppart/internal/cache"
	"lppart/internal/cdfg"
	"lppart/internal/codegen"
	"lppart/internal/explore"
	"lppart/internal/interp"
	"lppart/internal/isa"
	"lppart/internal/iss"
	"lppart/internal/mem"
	"lppart/internal/partition"
	"lppart/internal/tech"
	"lppart/internal/trace"
	"lppart/internal/units"
)

// Config parameterizes a system evaluation.
type Config struct {
	// Part configures the partitioning algorithm.
	Part partition.Config
	// ICache/DCache geometries; zero values select the defaults.
	ICache, DCache cache.Config
	// MemWords/StackWords size the µP's memory map.
	MemWords, StackWords int
	// MaxInstrs bounds the ISS runs.
	MaxInstrs int64
	// Verify cross-checks the partitioned design's memory against the
	// initial design's (differential co-simulation check). Default true;
	// set SkipVerify to disable.
	SkipVerify bool
}

func (c *Config) defaults() {
	if c.ICache.Sets == 0 {
		c.ICache = cache.DefaultICache()
	}
	if c.DCache.Sets == 0 {
		c.DCache = cache.DefaultDCache()
	}
	if c.MemWords == 0 {
		c.MemWords = 1 << 20
	}
	if c.StackWords == 0 {
		c.StackWords = 1 << 14
	}
	if c.Part.Lib == nil {
		c.Part.Lib = tech.Default()
	}
}

// Design is one fully evaluated implementation — a pair of Table 1 rows'
// worth of numbers.
type Design struct {
	Name string
	// Energy per core.
	EICache, EDCache, EMem, EBus, EMuP, EASIC units.Energy
	// Execution time split.
	MuPCycles, ASICCycles int64
	// Detail.
	ISS    *iss.Result
	IStats cache.Stats
	DStats cache.Stats
	GEQ    int // ASIC hardware effort (0 for the initial design)
}

// Total is the whole-system energy (Table 1 "total" column; bus energy is
// folded into the memory subsystem as the paper's table does not list it
// separately).
func (d *Design) Total() units.Energy {
	return d.EICache + d.EDCache + d.EMem + d.EBus + d.EMuP + d.EASIC
}

// TotalCycles is the execution time in cycles.
func (d *Design) TotalCycles() int64 { return d.MuPCycles + d.ASICCycles }

// Evaluation is the complete outcome for one application.
type Evaluation struct {
	App         string
	IR          *cdfg.Program
	Initial     *Design
	Partitioned *Design // nil when no partition was chosen
	Decision    *partition.Decision
	Profile     *interp.Profile

	// initialLay is the all-software compile's layout, kept for the
	// differential memory verify against the partitioned design.
	initialLay *codegen.Layout
}

// Savings returns Table 1's "Sav%" (negative = saving).
func (e *Evaluation) Savings() float64 {
	if e.Partitioned == nil {
		return 0
	}
	return units.PercentChange(float64(e.Initial.Total()), float64(e.Partitioned.Total()))
}

// TimeChange returns Table 1's "Chg%" (negative = faster).
func (e *Evaluation) TimeChange() float64 {
	if e.Partitioned == nil {
		return 0
	}
	return units.PercentChange(float64(e.Initial.TotalCycles()), float64(e.Partitioned.TotalCycles()))
}

// runDesign executes one compiled program against fresh cache/memory/bus
// cores and collects the per-core accounting.
func runDesign(name string, mp *isaProgram, cfg *Config, handler iss.ASICHandler,
	micro *tech.MicroprocessorSpec) (*Design, *bus.Bus, *mem.Memory, error) {
	return runDesignRec(name, mp, cfg, handler, micro, nil)
}

// runDesignRec is runDesign with an optional trace recorder teed into the
// memory system.
func runDesignRec(name string, mp *isaProgram, cfg *Config, handler iss.ASICHandler,
	micro *tech.MicroprocessorSpec, rec *trace.Recorder) (*Design, *bus.Bus, *mem.Memory, error) {
	lib := cfg.Part.Lib
	b := bus.New(lib)
	m := mem.New(lib)
	ic, err := cache.New("i-cache", cfg.ICache, lib.Cache, m, b)
	if err != nil {
		return nil, nil, nil, err
	}
	dcfg := cfg.DCache
	dcfg.WriteBack = true
	dc, err := cache.New("d-cache", dcfg, lib.Cache, m, b)
	if err != nil {
		return nil, nil, nil, err
	}
	// A recorder sees exactly the access sequence a dedicated recording
	// run would (the sequence is a pure function of the program), so
	// measurement and trace capture share a single ISS execution.
	var sys iss.MemSystem = &iss.Caches{I: ic, D: dc}
	if rec != nil {
		rec.Inner = sys
		sys = rec
	}
	res, err := iss.Run(mp.prog, iss.Options{
		Micro:     micro,
		Mem:       sys,
		ASIC:      handler,
		MaxInstrs: cfg.MaxInstrs,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	dc.Flush()
	d := &Design{
		Name:      name,
		EICache:   ic.Energy(),
		EDCache:   dc.Energy(),
		EMem:      m.Energy(),
		EBus:      b.Energy(),
		EMuP:      res.Energy,
		MuPCycles: res.Cycles,
		ISS:       res,
		IStats:    ic.Stats,
		DStats:    dc.Stats,
	}
	return d, b, m, nil
}

// coreSet dispatches ASIC rendezvous instructions to their core.
type coreSet map[int32]*asic.Core

// RunASIC implements iss.ASICHandler over multiple cores.
func (cs coreSet) RunASIC(id int32, mem []int32) (int64, error) {
	core, ok := cs[id]
	if !ok {
		return 0, fmt.Errorf("system: no ASIC core %d", id)
	}
	return core.RunASIC(id, mem)
}

// isaProgram bundles a compiled program with its layout.
type isaProgram struct {
	prog *isa.Program
	lay  *codegen.Layout
}

// EvaluateAllCtx runs the full design flow for several applications
// concurrently on a bounded worker pool (workers <= 0 selects one worker
// per CPU) and returns the evaluations in input order. EvaluateCtx is
// re-entrant — every run builds its own IR, designs, caches and cores —
// so concurrent evaluations share only read-only state (the technology
// library and resource sets of cfg, and the source ASTs). A cancelled or
// deadline-expired ctx stops the pool from starting new evaluations and
// aborts in-progress ones at their next stage boundary, returning
// ctx.Err(), so a timed-out caller stops burning workers mid-grid.
func EvaluateAllCtx(ctx context.Context, srcs []*behav.Program, cfg Config, workers int) ([]*Evaluation, error) {
	return explore.MapCtx(ctx, workers, srcs, func(_ int, src *behav.Program) (*Evaluation, error) {
		ev, err := EvaluateCtx(ctx, src, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", src.Name, err)
		}
		return ev, nil
	})
}

// EvaluateCtx runs the full design flow for one application: behavioral
// source → IR → profile → initial design → partitioning → partitioned
// design, with a functional cross-check between the two designs. It is
// safe for concurrent use: it mutates nothing reachable from its
// arguments. ctx cancels the run at its next stage boundary.
func EvaluateCtx(ctx context.Context, src *behav.Program, cfg Config) (*Evaluation, error) {
	cfg.defaults()
	ir, err := cdfg.Build(src)
	if err != nil {
		return nil, fmt.Errorf("system: %w", err)
	}
	return EvaluateIRCtx(ctx, ir, cfg)
}

// MeasureInitialCtx runs the measurement front half of the Fig. 5 flow —
// the profiling run and, concurrently with it, the initial (all-software)
// design — and returns
// the partially-filled Evaluation (IR, Profile, Initial) together with
// the partitioning Baseline derived from the measured design. EvaluateCtx
// continues from here into the greedy Fig. 1 loop; internal/dse's Pareto
// explorer continues into a branch-and-bound search instead, but judges
// every configuration against this same measured baseline.
func MeasureInitialCtx(ctx context.Context, ir *cdfg.Program, cfg Config) (*Evaluation, *partition.Baseline, error) {
	return measureCtx(ctx, ir, cfg, nil)
}

// MeasureAndRecordCtx is MeasureInitialCtx with a trace recorder teed into
// the initial design's memory system: one compile and one ISS execution
// yield both the measured baseline and the full memory-reference trace,
// replacing the separate MeasureInitialCtx + RecordTraceCtx passes. The
// recorded trace is byte-identical to RecordTraceCtx's — the access
// sequence does not depend on the observer.
func MeasureAndRecordCtx(ctx context.Context, ir *cdfg.Program, cfg Config) (*Evaluation, *partition.Baseline, *trace.Trace, error) {
	rec := &trace.Recorder{}
	ev, base, err := measureCtx(ctx, ir, cfg, rec)
	if err != nil {
		return nil, nil, nil, err
	}
	return ev, base, &rec.Trace, nil
}

func measureCtx(ctx context.Context, ir *cdfg.Program, cfg Config, rec *trace.Recorder) (*Evaluation, *partition.Baseline, error) {
	cfg.defaults()
	lib := cfg.Part.Lib
	micro := &lib.Micro

	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// Profiling run (Fig. 5 "Trace Tool" / profiler), concurrent with the
	// initial design's compile and ISS run: both only read the IR, and
	// neither result feeds the other. The buffered channel lets the
	// profiler finish even if nobody were to receive; every path below
	// receives before returning, so the goroutine never outlives the call.
	type profiled struct {
		res *interp.Result
		err error
	}
	profOpts := interp.Options{CollectProfile: true, MaxSteps: cfg.MaxInstrs}
	profc := make(chan profiled, 1)
	go func() {
		res, err := interp.Run(ir, profOpts)
		profc <- profiled{res, err}
	}()
	initial, fullLay, initErr := measureInitialDesign(ir, &cfg, micro, rec)
	prof := <-profc
	// Report in stage order: a profiling failure first, then a
	// cancellation that arrived while the stages ran, then the initial
	// design's failure.
	if prof.err != nil {
		return nil, nil, fmt.Errorf("system: profiling: %w", prof.err)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if initErr != nil {
		return nil, nil, initErr
	}
	ev := &Evaluation{App: ir.Name, IR: ir, Profile: prof.res.Prof,
		Initial: initial, initialLay: fullLay}

	base := &partition.Baseline{
		TotalEnergy:        initial.Total(),
		MuPEnergy:          initial.EMuP,
		RestEnergy:         initial.EICache + initial.EDCache + initial.EMem + initial.EBus,
		TotalCycles:        initial.TotalCycles(),
		Regions:            initial.ISS.Regions,
		Micro:              micro,
		ICacheAccessEnergy: cfg.ICache.AccessEnergy(lib.Cache),
	}
	return ev, base, nil
}

// measureInitialDesign compiles the all-software design and runs it on
// the ISS, teeing rec (when non-nil) into its memory system.
func measureInitialDesign(ir *cdfg.Program, cfg *Config, micro *tech.MicroprocessorSpec,
	rec *trace.Recorder) (*Design, *codegen.Layout, error) {
	full, fullLay, err := codegen.Compile(ir, codegen.Options{
		MemWords: cfg.MemWords, StackWords: cfg.StackWords})
	if err != nil {
		return nil, nil, fmt.Errorf("system: compile: %w", err)
	}
	initial, _, _, err := runDesignRec("initial", &isaProgram{prog: full, lay: fullLay}, cfg, nil, micro, rec)
	if err != nil {
		return nil, nil, fmt.Errorf("system: initial design: %w", err)
	}
	return initial, fullLay, nil
}

// RecordTraceCtx compiles the program and replays it on the ISS with a
// trace recorder attached, returning the complete memory-reference trace
// (instruction fetches, data reads and writes). The trace feeds the
// single-pass stack-distance cache sweeps: the access sequence is a pure
// function of the program, independent of any cache geometry, so one
// recording prices every geometry.
func RecordTraceCtx(ctx context.Context, ir *cdfg.Program, cfg Config) (*trace.Trace, error) {
	cfg.defaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mp, _, err := codegen.Compile(ir, codegen.Options{
		MemWords: cfg.MemWords, StackWords: cfg.StackWords})
	if err != nil {
		return nil, fmt.Errorf("system: compile: %w", err)
	}
	rec := &trace.Recorder{}
	if _, err := iss.Run(mp, iss.Options{Micro: &cfg.Part.Lib.Micro, Mem: rec,
		MaxInstrs: cfg.MaxInstrs}); err != nil {
		return nil, fmt.Errorf("system: trace recording: %w", err)
	}
	return &rec.Trace, nil
}

// EvaluateIRCtx is EvaluateCtx starting from already-built IR. ctx is
// checked at every stage boundary of the Fig. 5 flow (profile and initial
// design, which run concurrently → partitioning → partitioned design) and
// threaded into the
// partitioner's cluster × resource-set fan-out, so a cancelled
// evaluation stops at the next boundary instead of running the flow to
// completion.
func EvaluateIRCtx(ctx context.Context, ir *cdfg.Program, cfg Config) (*Evaluation, error) {
	cfg.defaults()
	lib := cfg.Part.Lib
	micro := &lib.Micro

	ev, base, err := MeasureInitialCtx(ctx, ir, cfg)
	if err != nil {
		return nil, err
	}

	// Partitioning (Fig. 1).
	dec, err := partition.PartitionCtx(ctx, ir, ev.Profile, base, cfg.Part)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("system: partition: %w", err)
	}
	ev.Decision = dec
	if dec.Chosen == nil {
		return ev, nil
	}

	// Partitioned design: recompile with the chosen cluster(s) excluded,
	// build one ASIC core per cluster, co-simulate.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	exclude := make(map[int]int, len(dec.Choices))
	for i, ch := range dec.Choices {
		exclude[ch.Region.ID] = i
	}
	part, partLay, err := codegen.Compile(ir, codegen.Options{
		MemWords: cfg.MemWords, StackWords: cfg.StackWords,
		Exclude: exclude,
	})
	if err != nil {
		return nil, fmt.Errorf("system: partitioned compile: %w", err)
	}
	asicBus := bus.New(lib)
	asicMem := mem.New(lib)
	cores := make(coreSet, len(dec.Choices))
	totalGEQ := 0
	for i, ch := range dec.Choices {
		core, err := asic.NewCore(i, ir, ch.Region, ch.Binding,
			partLay, lib, asicBus, asicMem)
		if err != nil {
			return nil, fmt.Errorf("system: ASIC core %d: %w", i, err)
		}
		cores[int32(i)] = core
		totalGEQ += ch.Eval.GEQ
	}
	pd, pb, pm, err := runDesign("partitioned", &isaProgram{prog: part, lay: partLay}, &cfg, cores, micro)
	if err != nil {
		return nil, fmt.Errorf("system: partitioned design: %w", err)
	}
	// Fold the ASIC's transfer traffic into the shared bus/memory cores.
	pd.EBus = pb.Energy() + asicBus.Energy()
	pd.EMem = pm.Energy() + asicMem.Energy()
	// Sum per-core energies in core-index order: float addition is not
	// associative, so map-order iteration would make the total's low bits
	// (and the byte-identical Table 1 contract) run-dependent.
	for i := range dec.Choices {
		pd.EASIC += cores[int32(i)].Energy
	}
	pd.ASICCycles = pd.ISS.ASICCycles
	pd.GEQ = totalGEQ
	ev.Partitioned = pd

	if !cfg.SkipVerify {
		if err := verify(ir, ev.initialLay, ev.Initial.ISS.Mem, partLay, pd.ISS.Mem); err != nil {
			return nil, fmt.Errorf("system: partitioned design diverged: %w", err)
		}
	}
	return ev, nil
}

// verify compares every global between the two designs' final memories.
func verify(ir *cdfg.Program, layA *codegen.Layout, memA []int32,
	layB *codegen.Layout, memB []int32) error {
	for gi, g := range ir.Globals {
		addrA, words, _ := layA.VarAddr(ir, "", true, gi)
		addrB, _, _ := layB.VarAddr(ir, "", true, gi)
		for w := int32(0); w < words; w++ {
			if memA[addrA+w] != memB[addrB+w] {
				return fmt.Errorf("global %s[%d]: initial=%d partitioned=%d",
					g.Name, w, memA[addrA+w], memB[addrB+w])
			}
		}
	}
	return nil
}
