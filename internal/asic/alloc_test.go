package asic

import (
	"testing"

	"lppart/internal/apps"
	"lppart/internal/sched"
	"lppart/internal/tech"
)

// TestBindAllocs bounds the allocations of Bind on every schedulable
// (cluster, resource set) pair of the six applications. A fixed part
// covers the returned binding and its two maps, the sort scratch and
// the seen-slabs of countLiveWords; per instantiated resource, the
// occupancy slab, the kind's instance list and Instances may each grow
// once. Nothing may grow per operation or per control step.
func TestBindAllocs(t *testing.T) {
	lib := tech.Default()
	sets := tech.DefaultResourceSets()
	freq := func(int) int64 { return 3 }
	for _, a := range apps.All() {
		ir, err := a.Build()
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for _, r := range ir.Regions() {
			for si := range sets {
				rs, err := sched.ScheduleRegion(sched.Config{Lib: lib, RS: &sets[si]}, r)
				if err != nil {
					continue
				}
				b, err := Bind(rs, lib, freq)
				if err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(5, func() {
					if _, err := Bind(rs, lib, freq); err != nil {
						t.Error(err)
					}
				})
				if budget := 12 + 3*len(b.Instances); allocs > float64(budget) {
					t.Errorf("%s %s on %s: Bind allocates %.0f objects, want at most %d (%d instances, %d steps)",
						a.Name, r.Label, sets[si].Name, allocs, budget, len(b.Instances), b.Steps)
				}
			}
		}
	}
}
