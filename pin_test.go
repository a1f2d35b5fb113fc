package lppart

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"
	"sort"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/cache"
	"lppart/internal/dse"
	"lppart/internal/milp"
	"lppart/internal/report"
	"lppart/internal/system"
	"lppart/internal/units"
)

// TestSearchOutputsPinned pins the bytes of both search tiers for the
// six applications at default settings: the rendered Pareto frontier
// (points plus the deterministic search counters, as `lppart -frontier`
// and /v1/explore serve them) and the certified exact optima in their
// wire form (certificate and instance stripped, as /v1/exact serves
// them). Any edit to the branch-and-bound or the exact solver that
// moves a point, a float, a tie-break or a work counter fails here.
func TestSearchOutputsPinned(t *testing.T) {
	want := map[string][2]string{ // app → {frontier, exact}
		"3d": {
			"12ce251909e1a29831dc032cab86ded9f002ce7d44a017a284736ab6e9c31041",
			"8139f830f43d26293b93514b83cd68204915143c808e60a4a1f3729c1032f8f6"},
		"MPG": {
			"10d79e1873235c5889d5ef455b1efc8c9b1352e91a112e0a3542c4a3d2231bfb",
			"88a2943de85dc354b70681fb02c47d11b281b84c28b59feff4e6418eded7a8e1"},
		"ckey": {
			"78bc54a7e8fdac33b32043b9d4a2ac6cd2d8d46d1abbfe48e8b6844d5407ea29",
			"d5d58ff090661bf17ca07f57f84958208d538dc903e3093f7ca77179d86ffad2"},
		"digs": {
			"a22ad8f6b015c376b5aee0cc7b458cc219d5710e8d23cda5f8f54c2738e0bcd8",
			"d3814776bed1d42132221b49962da53092d0485ae724ec4ead8b105cd34a3b78"},
		"engine": {
			"84814e0110c566b6f9c538d17d5c4415f59de0f6ff17c5ae7652c70684ecfe9d",
			"008da3944a3d20b0b222e89153ac41adc2c8c9259085cefd15fed60713a5e268"},
		"trick": {
			"4556352146b7df9ebee44da105c684d1ed1d2d93ee7488872c474cf347b93611",
			"3645e148f3e03b152d97c790ba76474216b6a0f678663369f41a4791b47b7f80"},
	}
	digest := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for _, a := range apps.All() {
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			ir, err := a.Build()
			if err != nil {
				t.Fatal(err)
			}
			cfg := dse.Config{Workers: 2}
			p, err := dse.Prepare(context.Background(), ir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			f, err := dse.ExplorePrep(context.Background(), p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := milp.Solve(context.Background(), p, milp.Config{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			optima := make([]milp.Optimum, 0, len(res.Optima))
			for _, o := range res.Optima {
				wire := *o
				wire.Cert, wire.Inst = nil, nil
				optima = append(optima, wire)
			}
			got := [2]string{digest(f), digest(optima)}
			if got != want[a.Name] {
				t.Errorf("digests {frontier, exact} = %q, want %q", got, want[a.Name])
			}
		})
	}
}

// TestTable1Pinned pins the six applications' greedy evaluations at the
// bit level. perfbench's golden digest hashes the printed Table 1, whose
// rounded cells let a low-bit float drift through; this digest covers the
// exact bits of every per-core energy of both designs, the cycle, class
// and activity counts of both ISS runs, every region stat, both caches'
// counters, the ASIC cycles and GEQ, the final data memory, the decision
// trail and the rendered Table 1 row. Any kernel edit that reorders a
// float sum or changes an access sequence fails here.
func TestTable1Pinned(t *testing.T) {
	want := map[string]string{
		"3d":     "5194b5a8e2ef642fefe116c260aa557e434e9ef301c75d8deb3363fa31b29603",
		"MPG":    "aca8af5fdd09bb3ad4b15f3c7f4b1ffe97887297cdc20fa47f6a4e4e2771236d",
		"ckey":   "0db0e9d6ceba8c49f2c403421aaf903dbe65d5f46ebd334ecb431da34750bd72",
		"digs":   "ac1f49569719519f8350f83b25972d6ded4cbd2970bb96fdaf2f5b6c6335c8f7",
		"engine": "038a6962318b006e45ce9b125064351081bac28491043430db70e348329ac41a",
		"trick":  "0197b83addffb3189186d26af91ad40fd7f4ee2007e7ed5ba2dcae6072711c38",
	}
	for _, a := range apps.All() {
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			src, err := a.Parse()
			if err != nil {
				t.Fatal(err)
			}
			ev, err := system.EvaluateCtx(context.Background(), src, system.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if got := evaluationDigest(ev); got != want[a.Name] {
				t.Errorf("digest = %q, want %q", got, want[a.Name])
			}
		})
	}
}

// evaluationDigest hashes everything TestTable1Pinned pins.
func evaluationDigest(ev *system.Evaluation) string {
	h := sha256.New()
	for _, d := range []*system.Design{ev.Initial, ev.Partitioned} {
		if d == nil {
			h.Write([]byte("no partition"))
			continue
		}
		writeDesign(h, d)
	}
	h.Write([]byte(ev.Decision.Trail()))
	h.Write([]byte(report.Table1([]*system.Evaluation{ev})))
	sum := h.Sum(nil)
	return hex.EncodeToString(sum)
}

func writeDesign(h hash.Hash, d *system.Design) {
	w := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	e := func(es ...units.Energy) {
		for _, x := range es {
			w(int64(math.Float64bits(float64(x))))
		}
	}
	st := func(s cache.Stats) { w(s.Accesses, s.Hits, s.Misses, s.WriteBacks) }
	h.Write([]byte(d.Name))
	e(d.EICache, d.EDCache, d.EMem, d.EBus, d.EMuP, d.EASIC)
	w(d.MuPCycles, d.ASICCycles, int64(d.GEQ))
	st(d.IStats)
	st(d.DStats)
	r := d.ISS
	w(int64(r.RV), r.Instrs, r.Cycles, r.ASICCycles)
	e(r.Energy)
	w(r.PerClass[:]...)
	w(r.Active[:]...)
	ids := make([]int, 0, len(r.Regions))
	for id := range r.Regions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		rs := r.Regions[id]
		w(int64(id), rs.Instrs, rs.Cycles)
		e(rs.Energy)
		w(rs.Active[:]...)
	}
	for _, v := range r.Mem {
		w(int64(v))
	}
}
