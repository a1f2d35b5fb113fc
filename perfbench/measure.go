package main

import (
	"context"
	"fmt"
	"time"

	"lppart/internal/cdfg"
	"lppart/internal/codegen"
	"lppart/internal/system"
	"lppart/internal/trace"
)

// recordTrace times the ISS on its own: a compile span, then
// system.RecordTraceCtx (compile + one ISS run with the trace recorder).
// iss.run_ms is the difference of the two.
func recordTrace(ctx context.Context, tr *tracer, op int64, parent int32, ir *cdfg.Program, cfg system.Config) (*trace.Trace, error) {
	var err error
	tr.do("codegen.compile", op, parent, func() {
		_, _, err = codegen.Compile(ir, codegen.Options{MemWords: 1 << 20, StackWords: 1 << 14})
	})
	if err != nil {
		return nil, fmt.Errorf("probe compile: %w", err)
	}
	var rt *trace.Trace
	tr.do("system.record_trace", op, parent, func() { rt, err = system.RecordTraceCtx(ctx, ir, cfg) })
	if err != nil {
		return nil, fmt.Errorf("probe trace recording: %w", err)
	}
	return rt, nil
}

// issLayer derives the ISS metrics from the recordTrace spans; instrs is
// the mean instruction count of one recorded run.
func issLayer(vals map[string]float64, ls map[string]layerTime, instrs float64) {
	run := ls["system.record_trace"].MeanSelf() - ls["codegen.compile"].MeanSelf()
	vals["iss.run_ms"] = run
	if run > 0 {
		vals["iss.minstr_per_s"] = instrs / run / 1e3
	}
}

// splitLoop is a traced closed loop: rounds of ops alternate between
// untraced and traced, so both halves see the same applications and the
// same machine conditions. An op is one round entry; traced ops run
// through traced, the rest through plain.
type splitLoop struct {
	round         int
	plain, traced func(i int) bool
	unOK, trOK    int64
	unBusy        time.Duration
}

func (s *splitLoop) op(i int) bool {
	if (i/s.round)%2 == 1 {
		good := s.traced(i)
		if good {
			s.trOK++
		}
		return good
	}
	t0 := time.Now()
	good := s.plain(i)
	s.unBusy += time.Since(t0)
	if good {
		s.unOK++
	}
	return good
}

// overhead reports traced vs untraced throughput. Both sides divide
// correct operations by the time spent inside operations (for the traced
// side, inside the root spans named roots), so probe calls outside the op
// span and loop bookkeeping are excluded alike.
func (s *splitLoop) overhead(vals map[string]float64, tr *tracer, roots ...string) {
	ls := tr.layers()
	wall := 0.0
	for _, r := range roots {
		wall += ls[r].WallMS / 1e3
	}
	un := float64(s.unOK) / s.unBusy.Seconds()
	vals["trace.untraced_ops_per_s"] = un
	if wall > 0 {
		vals["trace.traced_ops_per_s"] = float64(s.trOK) / wall
	}
	if un > 0 {
		vals["trace.overhead_frac"] = 1 - vals["trace.traced_ops_per_s"]/un
	}
}
