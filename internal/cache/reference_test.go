package cache

import (
	"math"
	"math/rand"
	"testing"

	"lppart/internal/bus"
	"lppart/internal/mem"
	"lppart/internal/tech"
	"lppart/internal/units"
)

// refCache is an obviously-correct direct-mapped reference model: a map
// from set index to the resident line's tag and dirty bit.
type refCache struct {
	lineWords int32
	sets      int32
	tags      map[int32]int32
	dirty     map[int32]bool
	hits      int64
	misses    int64
	wbacks    int64
}

func newRefCache(sets, lineWords int) *refCache {
	return &refCache{
		lineWords: int32(lineWords),
		sets:      int32(sets),
		tags:      make(map[int32]int32),
		dirty:     make(map[int32]bool),
	}
}

func (r *refCache) access(addr int32, write bool) {
	line := addr / r.lineWords
	set := line % r.sets
	tag := line / r.sets
	if t, ok := r.tags[set]; ok && t == tag {
		r.hits++
		if write {
			r.dirty[set] = true
		}
		return
	}
	r.misses++
	if _, ok := r.tags[set]; ok && r.dirty[set] {
		r.wbacks++
	}
	r.tags[set] = tag
	r.dirty[set] = write
}

// TestDirectMappedAgainstReference drives the production cache and the
// reference model with identical random streams and requires identical
// hit/miss/write-back counts.
func TestDirectMappedAgainstReference(t *testing.T) {
	lib := tech.Default()
	geoms := []Config{
		{Sets: 4, Assoc: 1, LineWords: 1, WriteBack: true},
		{Sets: 16, Assoc: 1, LineWords: 4, WriteBack: true},
		{Sets: 128, Assoc: 1, LineWords: 8, WriteBack: true},
	}
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range geoms {
		c, err := New("dut", cfg, lib.Cache, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefCache(cfg.Sets, cfg.LineWords)
		for i := 0; i < 50000; i++ {
			var addr int32
			switch rng.Intn(3) {
			case 0: // sequential-ish
				addr = int32(i % 4096)
			case 1: // strided
				addr = int32((i * 17) % 8192)
			default: // random
				addr = rng.Int31n(1 << 16)
			}
			write := rng.Intn(4) == 0
			c.Access(addr, write)
			ref.access(addr, write)
		}
		if c.Stats.Hits != ref.hits || c.Stats.Misses != ref.misses {
			t.Errorf("%+v: dut hits/misses %d/%d, ref %d/%d",
				cfg, c.Stats.Hits, c.Stats.Misses, ref.hits, ref.misses)
		}
		if c.Stats.WriteBacks != ref.wbacks {
			t.Errorf("%+v: dut writebacks %d, ref %d", cfg, c.Stats.WriteBacks, ref.wbacks)
		}
	}
}

// TestFullyAssociativeNeverWorseThanDirectMapped: with equal capacity, a
// fully associative LRU cache's miss count is never higher than a
// direct-mapped one's on the same trace... except for pathological LRU
// traces; we use a looping working-set trace where the inclusion holds.
func TestFullyAssociativeOnWorkingSet(t *testing.T) {
	lib := tech.Default()
	dm, _ := New("dm", Config{Sets: 64, Assoc: 1, LineWords: 1, WriteBack: true}, lib.Cache, nil, nil)
	fa, _ := New("fa", Config{Sets: 1, Assoc: 64, LineWords: 1, WriteBack: true}, lib.Cache, nil, nil)
	// A 48-word working set with a conflict-heavy layout: addresses
	// spaced by 64 collide pairwise in the direct-mapped cache but fit
	// comfortably in the fully associative one.
	for pass := 0; pass < 10; pass++ {
		for i := int32(0); i < 24; i++ {
			dm.Access(i*64, false)
			fa.Access(i*64, false)
			dm.Access(i*64+1, false)
			fa.Access(i*64+1, false)
		}
	}
	if fa.Stats.Misses > dm.Stats.Misses {
		t.Errorf("fully associative missed %d > direct-mapped %d on a fitting working set",
			fa.Stats.Misses, dm.Stats.Misses)
	}
	if fa.Stats.Misses >= fa.Stats.Accesses/2 {
		t.Errorf("working set fits: fa misses %d of %d", fa.Stats.Misses, fa.Stats.Accesses)
	}
}

// refAssoc is an obviously-correct N-way LRU write-back reference: per
// set, a map from resident tag to the line's last use and dirty bit. It
// keeps no way order, so it checks the production cache's fill and
// eviction without sharing its slab layout, index arithmetic shortcuts or
// last-line fast path. Line, set and tag follow the documented word
// address split (truncating division, set = low line bits).
type refAssoc struct {
	cfg   Config
	sets  map[int32]map[int32]*refLine
	time  int64
	stats Stats
	stall int
	mem   *mem.Memory
	bus   *bus.Bus
}

type refLine struct {
	used  int64
	dirty bool
}

func newRefAssoc(cfg Config, lib *tech.Library) *refAssoc {
	return &refAssoc{cfg: cfg, sets: map[int32]map[int32]*refLine{},
		mem: mem.New(lib), bus: bus.New(lib)}
}

func (r *refAssoc) writeBack() {
	r.stats.WriteBacks++
	r.stall += r.mem.Write(r.cfg.LineWords)
	r.bus.Write(r.cfg.LineWords)
}

func (r *refAssoc) access(addr int32, write bool) {
	r.time++
	r.stats.Accesses++
	line := addr / int32(r.cfg.LineWords)
	setIdx := line & int32(r.cfg.Sets-1)
	tag := line / int32(r.cfg.Sets)
	set := r.sets[setIdx]
	if set == nil {
		set = map[int32]*refLine{}
		r.sets[setIdx] = set
	}
	if l, ok := set[tag]; ok {
		r.stats.Hits++
		l.used = r.time
		l.dirty = l.dirty || write
		return
	}
	r.stats.Misses++
	if len(set) == r.cfg.Assoc {
		victim, oldest := int32(0), int64(math.MaxInt64)
		for t, l := range set {
			if l.used < oldest {
				victim, oldest = t, l.used
			}
		}
		if set[victim].dirty {
			r.writeBack()
		}
		delete(set, victim)
	}
	r.stall += r.mem.Read(r.cfg.LineWords)
	r.bus.Read(r.cfg.LineWords)
	set[tag] = &refLine{used: r.time, dirty: write}
}

func (r *refAssoc) flush() {
	for _, set := range r.sets {
		for _, l := range set {
			if l.dirty {
				r.writeBack()
				l.dirty = false
			}
		}
	}
}

func (r *refAssoc) reset() {
	r.sets = map[int32]map[int32]*refLine{}
	r.stats = Stats{}
	r.time = 0
}

// TestSetAssociativeAgainstReference drives the production cache and the
// map-based LRU reference with identical seeded streams — long runs on
// one line, interleaved writes, scattered and negative addresses, and
// Flush/Reset mid-stream — and requires identical counters, summed
// stalls and energy bits of the cache, its memory and its bus.
func TestSetAssociativeAgainstReference(t *testing.T) {
	lib := tech.Default()
	geoms := []Config{
		{Sets: 8, Assoc: 1, LineWords: 4, WriteBack: true},
		{Sets: 16, Assoc: 2, LineWords: 2, WriteBack: true},
		{Sets: 64, Assoc: 2, LineWords: 4, WriteBack: true},
		{Sets: 4, Assoc: 4, LineWords: 4, WriteBack: true},
		{Sets: 1, Assoc: 4, LineWords: 1, WriteBack: true},
	}
	for _, cfg := range geoms {
		for seed := int64(1); seed <= 3; seed++ {
			m, b := mem.New(lib), bus.New(lib)
			c, err := New("dut", cfg, lib.Cache, m, b)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefAssoc(cfg, lib)
			rng := rand.New(rand.NewSource(seed))
			span := int32(cfg.SizeBytes()) // in words: four times the capacity
			stall := 0
			check := func(when string) {
				t.Helper()
				if c.Stats != ref.stats || stall != ref.stall {
					t.Fatalf("%+v seed %d %s: dut %+v stall %d, ref %+v stall %d",
						cfg, seed, when, c.Stats, stall, ref.stats, ref.stall)
				}
				want := cfg.AccessEnergy(lib.Cache) * units.Energy(float64(ref.stats.Accesses))
				if math.Float64bits(float64(c.Energy())) != math.Float64bits(float64(want)) ||
					math.Float64bits(float64(m.Energy())) != math.Float64bits(float64(ref.mem.Energy())) ||
					math.Float64bits(float64(b.Energy())) != math.Float64bits(float64(ref.bus.Energy())) {
					t.Fatalf("%+v seed %d %s: energy bits differ (cache %v/%v mem %v/%v bus %v/%v)",
						cfg, seed, when, c.Energy(), want, m.Energy(), ref.mem.Energy(), b.Energy(), ref.bus.Energy())
				}
			}
			for i := 0; i < 20000; i++ {
				switch r := rng.Intn(100); {
				case r == 0:
					stall += c.Flush()
					ref.flush()
					check("after Flush")
				case r == 1 && rng.Intn(4) == 0:
					c.Reset()
					ref.reset()
					check("after Reset")
				case r < 30: // a run on one line, writes interleaved
					line := rng.Int31n(span) / int32(cfg.LineWords)
					for n := rng.Intn(20) + 1; n > 0; n-- {
						addr := line*int32(cfg.LineWords) + rng.Int31n(int32(cfg.LineWords))
						write := rng.Intn(3) == 0
						stall += c.Access(addr, write)
						ref.access(addr, write)
					}
				case r < 33: // negative addresses take the division path
					addr := -rng.Int31n(span)
					stall += c.Access(addr, false)
					ref.access(addr, false)
				default:
					addr := rng.Int31n(span)
					write := rng.Intn(4) == 0
					stall += c.Access(addr, write)
					ref.access(addr, write)
				}
			}
			stall += c.Flush()
			ref.flush()
			check("at the end")
		}
	}
}

// TestAccessZeroAlloc pins Access, hits and misses with write-backs
// alike, to zero heap allocations.
func TestAccessZeroAlloc(t *testing.T) {
	c, _, _ := newTestCache(t, Config{Sets: 16, Assoc: 2, LineWords: 4, WriteBack: true})
	addr := int32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 64; i++ {
			c.Access(addr, i%3 == 0)
			addr = (addr + 37) & 0x3ff
		}
	})
	if allocs != 0 {
		t.Errorf("Access allocates %.1f times per 64 accesses, want 0", allocs)
	}
}
