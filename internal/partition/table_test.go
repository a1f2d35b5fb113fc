package partition_test

import (
	"context"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/dse"
	"lppart/internal/partition"
)

// multiFuncSrc complements the six applications, which are single
// functions with no tied scores: its regions see other functions'
// global effects in their surroundings, and its twin loops tie on the
// pre-selection score, so the rank falls to the region-ID tie-break.
const multiFuncSrc = `
var a[64]; var b[64]; var c[64]; var g;
func fill() {
	var i;
	for i = 0; i < 64; i = i + 1 { a[i] = (i * 37) & 255; }
}
func bump() { g = g + a[3]; }
func main() {
	var i; var v; var w;
	fill();
	for i = 0; i < 64; i = i + 1 { v = a[i]; b[i] = v * v + g; }
	for i = 0; i < 64; i = i + 1 { w = a[i]; c[i] = w * w + g; }
	bump();
	for i = 0; i < 64; i = i + 1 { g = g + b[i] - c[i]; }
}
`

// TestRegionTableMatchesReference differentially tests the Evaluator's
// per-region table on the six applications and multiFuncSrc. Every
// region's table traffic must equal EstimateTraffic field for field.
// Candidates against the anchor baseline and against the halved-d-cache
// geometry's baseline must return what a from-scratch computation
// returns: the same all and pool order, skip reasons, traffic,
// invocations, scores, pre-selection flags and cumulative µP statistics.
func TestRegionTableMatchesReference(t *testing.T) {
	cases := apps.All()
	cases = append(cases, apps.App{Name: "multi", Source: multiFuncSrc})
	for _, a := range cases {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			ir, err := a.Build()
			if err != nil {
				t.Fatal(err)
			}
			prep, err := dse.Prepare(context.Background(), ir, dse.Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			e := prep.Delta.Evaluator()
			lib := e.Config().Lib

			regions := ir.Regions()
			traffic := e.RegionTraffic()
			if len(traffic) != len(regions) {
				t.Fatalf("table has %d rows for %d regions", len(traffic), len(regions))
			}
			for i, r := range regions {
				prev, next := partition.Siblings(r)
				if want := partition.EstimateTraffic(ir, r, prev, next, lib); traffic[i] != want {
					t.Errorf("%s: table traffic %+v, EstimateTraffic %+v", r.Label, traffic[i], want)
				}
			}

			// Geometry 0 is the anchor pair, geometry 2 halves the d-cache
			// (dse.DefaultGeometries).
			for _, gi := range []int{0, 2} {
				base := prep.Bases[gi]
				all, pool := e.Candidates(base)
				wantAll, wantPool := partition.ReferenceCandidates(e, base)
				if len(all) != len(wantAll) || len(pool) != len(wantPool) {
					t.Fatalf("geometry %d: %d/%d candidates, want %d/%d", gi, len(all), len(pool), len(wantAll), len(wantPool))
				}
				for i := range pool {
					if pool[i].Region != wantPool[i].Region {
						t.Errorf("geometry %d: pool[%d] = %s, want %s", gi, i, pool[i].Region.Label, wantPool[i].Region.Label)
					}
				}
				for i, c := range all {
					w := wantAll[i]
					if c.Region != w.Region || c.SkipReason != w.SkipReason || c.Traffic != w.Traffic ||
						c.Invocations != w.Invocations || c.Score != w.Score || c.Preselected != w.Preselected {
						t.Errorf("geometry %d: candidate %s = %+v, want %+v", gi, c.Region.Label, *c, *w)
					}
					if (c.MuP == nil) != (w.MuP == nil) || (c.MuP != nil && *c.MuP != *w.MuP) {
						t.Errorf("geometry %d: candidate %s µP stats %+v, want %+v", gi, c.Region.Label, c.MuP, w.MuP)
					}
				}
			}
		})
	}
}
