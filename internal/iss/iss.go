// Package iss is the instruction-set simulator with attached energy
// calculation ("an instruction set simulator tool (ISS) is used ...
// attached to the ISS is the facility to calculate the energy consumption
// depending on the instruction executed at a point in time (the same
// methodology as in [12])", paper §3.5).
//
// The simulator executes isa.Programs cycle- and energy-accurately at the
// instruction level: each instruction contributes its class base energy
// plus a circuit-state overhead when the class changes (Tiwari's model),
// and occupies the core for its class cycle count plus whatever extra
// cycles the memory system reports (cache misses). Memory *content* is
// owned by the ISS; the MemSystem callback only models timing and energy
// of the storage hierarchy, keeping the cache/memory cores cleanly
// separated as in the paper's design flow.
//
// The ISS also measures, per instruction class, which core-internal
// resources are actively used (tech.MicroprocessorSpec.Uses), yielding the
// µP-side utilization rate U_µP of Eq. 1/4 — both for the whole run and
// per cluster (instructions are tagged with their source region), which is
// what Fig. 1 line 9 compares against a candidate ASIC implementation.
//
// When the program was compiled with excluded clusters, the ASIC
// instruction transfers control to an ASICHandler: the µP core is shut
// down while the ASIC core runs (Eq. 3's "whenever one of the cores is
// performing, all the other cores are shut down"), so ASIC cycles extend
// execution time but add no µP energy.
package iss

import (
	"fmt"

	"lppart/internal/behav"
	"lppart/internal/cache"
	"lppart/internal/isa"
	"lppart/internal/tech"
	"lppart/internal/units"
)

// MemSystem models the timing and energy of instruction fetches and data
// accesses (caches + main memory). Implementations accumulate their own
// energy; the ISS only consumes the extra cycles.
type MemSystem interface {
	// FetchInstr is called once per executed instruction with its byte
	// address; it returns extra stall cycles (0 on a cache hit).
	FetchInstr(byteAddr uint32) (stallCycles int)
	// ReadData/WriteData are called for LD/ST with the word address.
	ReadData(wordAddr int32) (stallCycles int)
	WriteData(wordAddr int32) (stallCycles int)
}

// Caches is the MemSystem of a µP with an instruction cache I and a data
// cache D. Run recognizes it and calls the two cores directly, with each
// access's last-line fast path (cache.Cache.HitLast) inlined.
type Caches struct {
	I, D *cache.Cache
}

// FetchInstr accesses the instruction cache at the fetch's word address.
func (m *Caches) FetchInstr(byteAddr uint32) int { return m.I.Access(int32(byteAddr/4), false) }

// ReadData reads the data cache.
func (m *Caches) ReadData(addr int32) int { return m.D.Access(addr, false) }

// WriteData writes the data cache.
func (m *Caches) WriteData(addr int32) int { return m.D.Access(addr, true) }

// ASICHandler runs an ASIC core invocation on behalf of the rendezvous
// instruction. It returns the cycles the ASIC needed (in µP clock cycles,
// for execution-time accounting); energy is accounted inside the handler.
// The handler may read and write the shared memory.
type ASICHandler interface {
	RunASIC(id int32, mem []int32) (cycles int64, err error)
}

// Options configures a simulation.
type Options struct {
	// Micro is the µP core model; nil selects tech.Default().Micro.
	Micro *tech.MicroprocessorSpec
	// Mem models the storage hierarchy; nil means an ideal single-cycle
	// memory (no stalls, no extra energy).
	Mem MemSystem
	// ASIC handles rendezvous instructions; required only when the
	// program contains them.
	ASIC ASICHandler
	// MaxInstrs aborts runaway programs (default 500M).
	MaxInstrs int64
}

// RegionStat aggregates per-cluster statistics (keyed by cdfg region ID).
type RegionStat struct {
	Instrs int64
	Cycles int64
	Energy units.Energy
	// Active[k] counts cycles resource kind k was actively used while
	// executing this region's instructions (numerator of Eq. 1).
	Active [tech.NumResourceKinds]int64
}

// Utilization returns U_µP for the region per Eq. 4: the mean over the
// core's resource inventory of per-resource active-cycle ratios.
func (rs *RegionStat) Utilization(m *tech.MicroprocessorSpec) float64 {
	return utilization(m, rs.Active, rs.Cycles)
}

func utilization(m *tech.MicroprocessorSpec, active [tech.NumResourceKinds]int64, cycles int64) float64 {
	if cycles == 0 {
		return 0
	}
	sum, n := 0.0, 0
	for k := tech.ResourceKind(0); k < tech.NumResourceKinds; k++ {
		inventory := m.CoreResources[k]
		if inventory == 0 {
			continue
		}
		n += inventory
		u := float64(active[k]) / float64(cycles)
		if u > 1 {
			u = 1
		}
		sum += u // remaining (inventory-1) instances contribute 0
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Result is the outcome of a simulation.
type Result struct {
	RV     int32 // r1 at halt (main's return value)
	Instrs int64
	// Cycles is µP busy time; ASICCycles is time spent with the µP shut
	// down while ASIC cores ran. Total execution time is the sum.
	Cycles     int64
	ASICCycles int64
	// Energy is the µP core's energy only (caches/memory/bus/ASIC are
	// accounted in their own models).
	Energy   units.Energy
	PerClass [tech.NumInstrClasses]int64
	Active   [tech.NumResourceKinds]int64
	// Regions holds per-cluster statistics, keyed by cdfg region ID
	// (-1 collects untagged instructions).
	Regions map[int]*RegionStat
	// Mem is the final data memory (owned by the caller after Run).
	Mem []int32
}

// Utilization returns the whole-run U_µP.
func (r *Result) Utilization(m *tech.MicroprocessorSpec) float64 {
	return utilization(m, r.Active, r.Cycles)
}

// TotalCycles returns µP plus ASIC cycles — the Table 1 "total" column.
func (r *Result) TotalCycles() int64 { return r.Cycles + r.ASICCycles }

// SimError is a simulation fault.
type SimError struct {
	PC  int
	Msg string
}

// Error implements the error interface.
func (e *SimError) Error() string { return fmt.Sprintf("iss: pc=%d: %s", e.PC, e.Msg) }

// opClass maps machine opcodes to the energy model's instruction classes.
// A dense array: the lookup sits on the per-instruction hot path of Run.
var opClass = [isa.NumOpcodes]tech.InstrClass{
	isa.NOP: tech.IClassNop, isa.HALT: tech.IClassNop, isa.ASIC: tech.IClassNop,
	isa.LI: tech.IClassMove, isa.MOV: tech.IClassMove,
	isa.ADD: tech.IClassALU, isa.SUB: tech.IClassALU, isa.AND: tech.IClassALU,
	isa.OR: tech.IClassALU, isa.XOR: tech.IClassALU, isa.NEG: tech.IClassALU, isa.NOT: tech.IClassALU,
	isa.CMPEQ: tech.IClassALU, isa.CMPNE: tech.IClassALU, isa.CMPLT: tech.IClassALU,
	isa.CMPLE: tech.IClassALU, isa.CMPGT: tech.IClassALU, isa.CMPGE: tech.IClassALU,
	isa.SLL: tech.IClassShift, isa.SRA: tech.IClassShift,
	isa.MUL: tech.IClassMul, isa.DIV: tech.IClassDiv, isa.REM: tech.IClassDiv,
	isa.LD: tech.IClassLoad, isa.ST: tech.IClassStore,
	isa.B: tech.IClassBranch, isa.BEQZ: tech.IClassBranch, isa.BNEZ: tech.IClassBranch, isa.JR: tech.IClassBranch,
	isa.CALL: tech.IClassCall,
}

// issToBinOp maps binary-ALU machine opcodes to their behavioral
// semantics. A dense array: this lookup sits on the per-instruction hot
// path of Run.
var issToBinOp = [isa.NumOpcodes]behav.BinOp{
	isa.ADD: behav.OpAdd, isa.SUB: behav.OpSub, isa.MUL: behav.OpMul,
	isa.DIV: behav.OpDiv, isa.REM: behav.OpRem,
	isa.AND: behav.OpAnd, isa.OR: behav.OpOr, isa.XOR: behav.OpXor,
	isa.SLL: behav.OpShl, isa.SRA: behav.OpShr,
	isa.CMPEQ: behav.OpEq, isa.CMPNE: behav.OpNeq, isa.CMPLT: behav.OpLt,
	isa.CMPLE: behav.OpLeq, isa.CMPGT: behav.OpGt, isa.CMPGE: behav.OpGeq,
}

// Run simulates the program to completion (HALT).
func Run(p *isa.Program, opts Options) (*Result, error) {
	micro := opts.Micro
	if micro == nil {
		micro = &tech.Default().Micro
	}
	maxInstrs := opts.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = 500_000_000
	}
	mem := make([]int32, p.MemWords)
	var regs [isa.NumRegs]int32
	regs[isa.SP] = int32(p.MemWords)

	res := &Result{Regions: make(map[int]*RegionStat), Mem: mem}
	// Dense per-region accumulators indexed by region ID + 1 (untagged
	// instructions carry region -1). The public map is materialized at
	// HALT; the per-instruction loop below never touches a map.
	maxRegion := -1
	for i := range p.Code {
		if p.Code[i].Region > maxRegion {
			maxRegion = p.Code[i].Region
		}
	}
	regStats := make([]RegionStat, maxRegion+2)
	// The loop counts instructions per region and class; instruction
	// counts and active cycles follow from those counts at HALT. Integer
	// sums, so regrouping them leaves every total exact.
	classCounts := make([][tech.NumInstrClasses]int64, maxRegion+2)
	finish := func(instrs, busy int64, totalEnergy units.Energy) {
		res.Instrs, res.Cycles, res.Energy = instrs, busy, totalEnergy
		for id := range regStats {
			st := &regStats[id]
			for c, n := range classCounts[id] {
				st.Instrs += n
				res.PerClass[c] += n
				for _, k := range micro.Uses[c] {
					st.Active[k] += n * int64(micro.CyclesFor[c])
				}
			}
			if st.Instrs > 0 {
				res.Regions[id-1] = st
			}
		}
		for c, n := range res.PerClass {
			for _, k := range micro.Uses[c] {
				res.Active[k] += n * int64(micro.CyclesFor[c])
			}
		}
	}

	// Predecode once per run: every instruction's class, and per class
	// its base cycles and its energy after each preceding class (exactly
	// micro.InstrEnergy's value).
	classes := make([]tech.InstrClass, len(p.Code))
	for i := range p.Code {
		classes[i] = tech.IClassNop // unknown opcodes fault in the loop
		if op := p.Code[i].Op; op >= 0 && op < isa.NumOpcodes {
			classes[i] = opClass[op]
		}
	}
	var baseCycles [tech.NumInstrClasses]int64
	var stepEnergy [tech.NumInstrClasses][tech.NumInstrClasses]units.Energy // [prev][class]
	for c := tech.InstrClass(0); c < tech.NumInstrClasses; c++ {
		baseCycles[c] = int64(micro.CyclesFor[c])
		for prev := tech.InstrClass(0); prev < tech.NumInstrClasses; prev++ {
			stepEnergy[prev][c] = micro.InstrEnergy(prev, c)
		}
	}
	// The cache pair is called directly; any other MemSystem (a trace
	// recorder, a test double) goes through the interface.
	caches, _ := opts.Mem.(*Caches)

	// Run totals, kept in locals so the loop holds them in registers;
	// finish stores them into res at HALT.
	var instrs, busy int64
	var totalEnergy units.Energy
	pc := p.Entry
	prevClass := tech.IClassNop
	for {
		if pc < 0 || pc >= len(p.Code) {
			return nil, &SimError{PC: pc, Msg: "pc out of range"}
		}
		ins := &p.Code[pc]
		if instrs >= maxInstrs {
			return nil, &SimError{PC: pc, Msg: fmt.Sprintf("instruction limit %d exceeded", maxInstrs)}
		}

		if ins.Op == isa.HALT {
			res.RV = regs[isa.RV]
			finish(instrs, busy, totalEnergy)
			return res, nil
		}
		if ins.Op == isa.ASIC {
			if opts.ASIC == nil {
				return nil, &SimError{PC: pc, Msg: "ASIC instruction without handler"}
			}
			// The rendezvous itself costs one µP cycle (trigger write);
			// then the µP shuts down for the ASIC's duration.
			instrs++
			busy++
			cyc, err := opts.ASIC.RunASIC(ins.Imm, mem)
			if err != nil {
				return nil, &SimError{PC: pc, Msg: fmt.Sprintf("ASIC core %d: %v", ins.Imm, err)}
			}
			res.ASICCycles += cyc
			pc++
			continue
		}

		instrs++
		class := classes[pc]
		cycles := baseCycles[class]
		if caches != nil {
			if a := int32(isa.ByteAddr(pc) / 4); !caches.I.HitLast(a, false) {
				cycles += int64(caches.I.Access(a, false))
			}
		} else if opts.Mem != nil {
			cycles += int64(opts.Mem.FetchInstr(isa.ByteAddr(pc)))
		}
		energy := stepEnergy[prevClass][class]
		prevClass = class

		next := pc + 1
		switch ins.Op {
		case isa.NOP:
		case isa.LI:
			regs[ins.Rd] = ins.Imm
		case isa.MOV:
			regs[ins.Rd] = regs[ins.Rs1]
		case isa.NEG:
			regs[ins.Rd] = -regs[ins.Rs1]
		case isa.NOT:
			regs[ins.Rd] = ^regs[ins.Rs1]
		case isa.LD:
			addr := regs[ins.Rs1] + ins.Imm
			if addr < 0 || int(addr) >= len(mem) {
				return nil, &SimError{PC: pc, Msg: fmt.Sprintf("load address %d out of range", addr)}
			}
			if caches != nil {
				if !caches.D.HitLast(addr, false) {
					cycles += int64(caches.D.Access(addr, false))
				}
			} else if opts.Mem != nil {
				cycles += int64(opts.Mem.ReadData(addr))
			}
			regs[ins.Rd] = mem[addr]
		case isa.ST:
			addr := regs[ins.Rs1] + ins.Imm
			if addr < 0 || int(addr) >= len(mem) {
				return nil, &SimError{PC: pc, Msg: fmt.Sprintf("store address %d out of range", addr)}
			}
			if caches != nil {
				if !caches.D.HitLast(addr, true) {
					cycles += int64(caches.D.Access(addr, true))
				}
			} else if opts.Mem != nil {
				cycles += int64(opts.Mem.WriteData(addr))
			}
			mem[addr] = regs[ins.Rs2]
		case isa.B:
			next = ins.Target
		case isa.BEQZ:
			if regs[ins.Rs1] == 0 {
				next = ins.Target
			}
		case isa.BNEZ:
			if regs[ins.Rs1] != 0 {
				next = ins.Target
			}
		case isa.CALL:
			regs[isa.RA] = int32(pc + 1)
			next = ins.Target
		case isa.JR:
			next = int(regs[ins.Rs1])
		default:
			if !ins.Op.IsBinaryALU() {
				return nil, &SimError{PC: pc, Msg: fmt.Sprintf("unimplemented opcode %v", ins.Op)}
			}
			b := regs[ins.Rs2]
			if ins.UseImm {
				b = ins.Imm
			}
			v, err := behav.EvalBinOp(issToBinOp[ins.Op], regs[ins.Rs1], b)
			if err != nil {
				return nil, &SimError{PC: pc, Msg: err.Error()}
			}
			regs[ins.Rd] = v
		}
		regs[isa.Zero] = 0 // r0 stays hardwired

		busy += cycles
		totalEnergy += energy
		classCounts[ins.Region+1][class]++
		st := &regStats[ins.Region+1]
		st.Cycles += cycles
		st.Energy += energy

		pc = next
	}
}
