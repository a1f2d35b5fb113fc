// Package cache implements the instruction- and data-cache cores with the
// analytical per-access energy model the paper uses ("analytical models
// for main memory energy consumption and caches are fed with the output
// of a cache profiler", §3.5; parameters "of a 0.8µ CMOS process", §4).
//
// The simulator is a standard set-associative cache with LRU replacement
// and, for data caches, write-back/write-allocate. Every access costs an
// analytical energy (row decode + tag compare per way + data array read +
// output drive) derived from tech.CacheTech and the geometry; misses
// additionally refill a full line from main memory over the bus, which is
// how a different hardware/software partition changes cache AND memory
// AND bus energy — the whole-system effect Table 1's columns capture.
package cache

import (
	"fmt"
	"math/bits"

	"lppart/internal/bus"
	"lppart/internal/mem"
	"lppart/internal/tech"
	"lppart/internal/units"
)

// MaxAssoc bounds Config.Assoc independently of Sets: a 64k-way set is
// already far beyond any buildable CAM, so larger values are treated as
// geometry-generator bugs rather than design points.
const MaxAssoc = 1 << 16

// Config is a cache geometry.
type Config struct {
	Sets      int // number of sets (power of two)
	Assoc     int // ways per set
	LineWords int // 32-bit words per line (power of two)
	// WriteBack selects write-back/write-allocate (true, the data-cache
	// default) versus read-only behaviour for instruction caches (writes
	// are rejected).
	WriteBack bool
}

// SizeBytes returns the cache capacity in bytes.
func (c Config) SizeBytes() int { return c.Sets * c.Assoc * c.LineWords * 4 }

// TagBits returns the tag-field width of this geometry: a 32-bit byte
// address minus the set-index and line-offset bits, floored at one. The
// geometry must be valid (see New): Sets and LineWords are powers of two,
// so the field widths are exact integers (math/bits, no float rounding).
func (c Config) TagBits() int {
	tagBits := 32 - bits.TrailingZeros(uint(c.Sets)) - bits.TrailingZeros(uint(c.LineWords)) - 2
	if tagBits < 1 {
		tagBits = 1
	}
	return tagBits
}

// AccessEnergy returns the analytical per-access energy of this geometry
// in technology ct — row decode + tag compare per way + data array read +
// output drive (see the package comment) — without building a cache core.
// The geometry must be valid (see New); the partitioning baseline uses
// this to price i-cache fetches removed by a partition.
func (c Config) AccessEnergy(ct tech.CacheTech) units.Energy {
	setsLog2 := bits.TrailingZeros(uint(c.Sets))
	lineBits := c.LineWords * 32
	return units.Energy(float64(setsLog2))*ct.EDecodePerSetLog2 +
		units.Energy(float64(c.TagBits()*c.Assoc))*ct.ETagBit +
		units.Energy(float64(lineBits))*ct.EDataBit +
		ct.EOutputPerWord
}

// RefillWords returns the words read from main memory by n line refills
// (misses) of this geometry. Exported so the single-pass profiler prices
// misses with the same arithmetic a live core would.
func (c Config) RefillWords(misses int64) int64 { return misses * int64(c.LineWords) }

// WriteBackWords returns the words written to main memory by n dirty-line
// write-backs of this geometry.
func (c Config) WriteBackWords(writeBacks int64) int64 { return writeBacks * int64(c.LineWords) }

// MissStalls returns the stall cycles n refills plus m write-backs cost
// against memory technology mt — exactly the sum of the per-access stalls
// Access and Flush would have returned for the same counts.
func (c Config) MissStalls(mt tech.MemoryTech, misses, writeBacks int64) int64 {
	return int64(mt.LatencyCycles) * (c.RefillWords(misses) + c.WriteBackWords(writeBacks))
}

// Validate checks the geometry: power-of-two sets and line size, positive
// associativity within MaxAssoc.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache: sets %d must be a positive power of two", c.Sets)
	}
	if c.LineWords <= 0 || c.LineWords&(c.LineWords-1) != 0 {
		return fmt.Errorf("cache: line words %d must be a positive power of two", c.LineWords)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache: associativity %d must be positive", c.Assoc)
	}
	if c.Assoc > MaxAssoc {
		return fmt.Errorf("cache: associativity %d exceeds MaxAssoc %d", c.Assoc, MaxAssoc)
	}
	return nil
}

// Stats is the access accounting of a cache core.
type Stats struct {
	Accesses   int64
	Hits       int64
	Misses     int64
	WriteBacks int64 // dirty lines evicted to memory
}

// HitRate returns hits/accesses (1 when idle).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 1
	}
	return float64(s.Hits) / float64(s.Accesses)
}

type line struct {
	valid bool
	dirty bool
	tag   int32
	lru   int64
}

// Cache is one cache core.
type Cache struct {
	Name    string
	Cfg     Config
	Stats   Stats
	eAccess units.Energy
	// lines holds every way of every set in one slab: set s occupies
	// lines[s*Assoc : (s+1)*Assoc].
	lines []line
	// lineShift and setShift are log2(LineWords) and log2(Sets), setMask
	// is Sets-1: the index arithmetic of a non-negative address.
	lineShift, setShift uint
	setMask             int32
	// last is the slab index of the most recently touched line and
	// lastLine its line address, or -1 when no line was touched since
	// New or Reset (no non-negative address maps to line -1). A repeat
	// access to that line is a hit on the same way: only an access to
	// another line can evict it, and that access would have become the
	// last one.
	last     int
	lastLine int32
	backend  *mem.Memory
	bus      *bus.Bus
	tick     int64
}

// New builds a cache. backend and b may be nil for a cache simulated in
// isolation (misses then cost no memory/bus energy, only their stall
// cycles are skipped).
func New(name string, cfg Config, ct tech.CacheTech, backend *mem.Memory, b *bus.Bus) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		Name: name, Cfg: cfg, backend: backend, bus: b,
		lines:     make([]line, cfg.Sets*cfg.Assoc),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineWords))),
		setShift:  uint(bits.TrailingZeros(uint(cfg.Sets))),
		setMask:   int32(cfg.Sets - 1),
		lastLine:  -1,
	}
	// Analytical access energy from the geometry (see package comment).
	c.eAccess = cfg.AccessEnergy(ct)
	return c, nil
}

// AccessEnergy returns the per-access energy of this geometry.
func (c *Cache) AccessEnergy() units.Energy { return c.eAccess }

// Energy returns the cache core's total array energy so far (misses'
// memory and bus energy are accounted in those cores, not here).
func (c *Cache) Energy() units.Energy {
	return units.Energy(float64(c.Stats.Accesses)) * c.eAccess
}

// HitLast is the fast path of Access, small enough to inline into a
// simulator loop. When addr is non-negative and falls on the most recently
// touched line, it books the hit exactly as Access would and returns true.
// Otherwise it books nothing and returns false; the caller then calls
// Access.
func (c *Cache) HitLast(addr int32, write bool) bool {
	if addr < 0 || addr>>c.lineShift != c.lastLine || (write && !c.Cfg.WriteBack) {
		return false
	}
	c.tick++
	c.Stats.Accesses++
	c.Stats.Hits++
	l := &c.lines[c.last]
	l.lru = c.tick
	l.dirty = l.dirty || write
	return true
}

// Access performs one word access. addr is a word address. It returns the
// stall cycles beyond a hit (0 on hit).
//
//lint:hotpath guarded by TestAccessZeroAlloc
func (c *Cache) Access(addr int32, write bool) (stall int) {
	if c.HitLast(addr, write) {
		return 0
	}
	if write && !c.Cfg.WriteBack {
		panic(fmt.Sprintf("cache %s: write to read-only cache", c.Name)) //lint:alloc panic path
	}
	c.tick++
	c.Stats.Accesses++
	var lineAddr, tag int32
	var setIdx int
	if addr >= 0 {
		lineAddr = addr >> c.lineShift
		setIdx = int(lineAddr & c.setMask)
		tag = lineAddr >> c.setShift
	} else {
		// Signed division truncates toward zero, which no shift mimics.
		lineAddr = addr / int32(c.Cfg.LineWords)
		setIdx = int(lineAddr) & (c.Cfg.Sets - 1)
		tag = lineAddr / int32(c.Cfg.Sets)
	}
	base := setIdx * c.Cfg.Assoc
	set := c.lines[base : base+c.Cfg.Assoc]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.Stats.Hits++
			set[i].lru = c.tick
			if write {
				set[i].dirty = true
			}
			c.last, c.lastLine = base+i, lineAddr
			return 0
		}
	}
	// Miss: fill the first invalid way if any remain; only a full set
	// evicts, and then strictly the LRU way. (Scanning for the LRU and
	// the first invalid way together used to skip an invalid way 0.)
	c.Stats.Misses++
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
	}
	stall = 0
	if set[victim].valid && set[victim].dirty {
		c.Stats.WriteBacks++
		if c.backend != nil {
			stall += c.backend.Write(c.Cfg.LineWords)
		}
		if c.bus != nil {
			c.bus.Write(c.Cfg.LineWords)
		}
	}
	if c.backend != nil {
		stall += c.backend.Read(c.Cfg.LineWords)
	}
	if c.bus != nil {
		c.bus.Read(c.Cfg.LineWords)
	}
	set[victim] = line{valid: true, dirty: write, tag: tag, lru: c.tick}
	c.last, c.lastLine = base+victim, lineAddr
	return stall
}

// Flush writes back all dirty lines (end-of-run accounting) and returns
// the stall cycles of the write-backs. Lines stay resident.
func (c *Cache) Flush() (stall int) {
	for i := range c.lines {
		l := &c.lines[i]
		if l.valid && l.dirty {
			c.Stats.WriteBacks++
			if c.backend != nil {
				stall += c.backend.Write(c.Cfg.LineWords)
			}
			if c.bus != nil {
				c.bus.Write(c.Cfg.LineWords)
			}
			l.dirty = false
		}
	}
	return stall
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.lines)
	c.Stats = Stats{}
	c.tick = 0
	c.lastLine = -1
}

// DefaultICache is the reference instruction-cache geometry: 2 KiB
// direct-mapped with 4-word lines, an embedded-class size for the era.
func DefaultICache() Config { return Config{Sets: 128, Assoc: 1, LineWords: 4} }

// DefaultDCache is the reference data-cache geometry: 2 KiB 2-way with
// 4-word lines, write-back.
func DefaultDCache() Config { return Config{Sets: 64, Assoc: 2, LineWords: 4, WriteBack: true} }
