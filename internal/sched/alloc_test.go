package sched

import (
	"testing"

	"lppart/internal/apps"
	"lppart/internal/cdfg"
)

// TestScheduleBlockZeroAlloc holds ScheduleBlock to its contract: once
// the pooled workspace has warmed up, a call allocates only the
// BlockSchedule it returns and, for a block with scheduled operations,
// that schedule's Ops slice. It schedules every block of every
// application, so the dependence lists of buildDFG see scalar reuse,
// array loads and stores, and blocks of every size.
func TestScheduleBlockZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled workspaces at random under -race")
	}
	cfg := stdConfig()
	type blk struct {
		f *cdfg.Function
		b *cdfg.Block
	}
	var blocks []blk
	budget := 0
	for _, a := range apps.All() {
		ir, err := a.Build()
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for _, f := range ir.Funcs {
			for _, b := range f.Blocks {
				bs, err := ScheduleBlock(cfg, f, b)
				if err != nil {
					continue // needs a resource rs-std lacks
				}
				blocks = append(blocks, blk{f, b})
				budget++ // the BlockSchedule
				if len(bs.Ops) > 0 {
					budget++ // its Ops slice
				}
			}
		}
	}
	if len(blocks) == 0 {
		t.Fatal("no schedulable blocks")
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, x := range blocks {
			if _, err := ScheduleBlock(cfg, x.f, x.b); err != nil {
				t.Error(err)
			}
		}
	})
	if allocs > float64(budget) {
		t.Errorf("scheduling %d blocks allocates %.0f objects, want at most %d (the returned schedules)",
			len(blocks), allocs, budget)
	}
}
