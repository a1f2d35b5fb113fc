package partition

import (
	"fmt"
	"sort"

	"lppart/internal/cdfg"
	"lppart/internal/iss"
)

// Siblings exposes siblings to the external differential tests.
var Siblings = siblings

// RegionTraffic returns the Fig. 3 traffic of every region from the
// Evaluator's region table, in p.Regions() order.
func (e *Evaluator) RegionTraffic() []Traffic {
	t := e.regionTable()
	out := make([]Traffic, len(t.rows))
	for i := range t.rows {
		out[i] = t.rows[i].traffic
	}
	return out
}

// ReferenceCandidates is Fig. 1 steps 1-5 computed from scratch, with no
// region table: per-region EstimateTraffic, the cumulative statistics
// summed by walking each region's subtree, and a sort.Slice rank. It is
// the oracle Evaluator.Candidates is tested against.
func ReferenceCandidates(e *Evaluator, base *Baseline) (all, pool []*Candidate) {
	for _, r := range e.p.Regions() {
		c := &Candidate{Region: r}
		all = append(all, c)
		if reason := ineligible(e.p, e.prof, r); reason != "" {
			c.SkipReason = reason
			continue
		}
		prev, next := siblings(r)
		c.Traffic = EstimateTraffic(e.p, r, prev, next, e.cfg.Lib)
		agg := &iss.RegionStat{}
		r.Walk(func(x *cdfg.Region) {
			if s := base.Regions[x.ID]; s != nil {
				agg.Instrs += s.Instrs
				agg.Cycles += s.Cycles
				agg.Energy += s.Energy
				for k := range agg.Active {
					agg.Active[k] += s.Active[k]
				}
			}
		})
		c.MuP = agg
		c.Invocations = invocationsOf(e.prof, r)
		if c.MuP.Instrs == 0 {
			c.SkipReason = "cluster never executed on the µP"
			continue
		}
		c.Score = float64(c.MuP.Energy) - float64(c.Traffic.Energy)*float64(c.Invocations)
	}
	for _, c := range all {
		if c.SkipReason == "" {
			pool = append(pool, c)
		}
	}
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].Score != pool[j].Score {
			return pool[i].Score > pool[j].Score
		}
		return pool[i].Region.ID < pool[j].Region.ID
	})
	if len(pool) > e.cfg.MaxClusters {
		for _, c := range pool[e.cfg.MaxClusters:] {
			c.SkipReason = fmt.Sprintf("pre-selection: below top %d by bus-traffic score", e.cfg.MaxClusters)
		}
		pool = pool[:e.cfg.MaxClusters]
	}
	for _, c := range pool {
		c.Preselected = true
	}
	return all, pool
}
