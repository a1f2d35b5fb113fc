// Determinism regression test for the parallel evaluation engine: the
// tentpole contract is that any worker count produces byte-identical
// artifacts — Table 1 rows and the partitioning decision trail — because
// grid results merge in deterministic (cluster rank, set index) order and
// the schedule/binding memo only reuses what the serial path would have
// recomputed bit-for-bit.
package lppart

import (
	"context"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/behav"
	"lppart/internal/report"
	"lppart/internal/system"
)

// renderApp evaluates one application at the given worker count and
// returns its rendered Table 1 row and decision trail.
func renderApp(t *testing.T, a apps.App, workers int) (row, trail string) {
	t.Helper()
	src, err := a.Parse()
	if err != nil {
		t.Fatal(err)
	}
	cfg := system.Config{}
	cfg.Part.Workers = workers
	cfg.Part.MaxCores = 2 // exercise the memoized rounds, not just round 1
	ev, err := system.EvaluateCtx(context.Background(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return report.Table1([]*system.Evaluation{ev}), ev.Decision.Trail()
}

func TestParallelEvaluationDeterministic(t *testing.T) {
	for _, a := range apps.All() {
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			serialRow, serialTrail := renderApp(t, a, 1)
			parRow, parTrail := renderApp(t, a, 8)
			if parRow != serialRow {
				t.Errorf("Workers=8 Table 1 row differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
					serialRow, parRow)
			}
			if parTrail != serialTrail {
				t.Errorf("Workers=8 decision trail differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
					serialTrail, parTrail)
			}
		})
	}
}

// TestEvaluateAllMatchesSerial covers the whole-app fan-out layer: the
// six evaluations coming back from the shared worker pool must render the
// same Table 1 as six independent serial runs, in the same order.
func TestEvaluateAllMatchesSerial(t *testing.T) {
	list := apps.All()
	serial := make([]*system.Evaluation, 0, len(list))
	srcs := make([]*behav.Program, 0, len(list))
	for _, a := range list {
		src, err := a.Parse()
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
		ev, err := system.EvaluateCtx(context.Background(), src, system.Config{})
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, ev)
	}
	parallel, err := system.EvaluateAllCtx(context.Background(), srcs, system.Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := report.Table1(parallel), report.Table1(serial); got != want {
		t.Errorf("EvaluateAllCtx Table 1 differs from serial evaluations:\n--- serial ---\n%s\n--- parallel ---\n%s",
			want, got)
	}
}
