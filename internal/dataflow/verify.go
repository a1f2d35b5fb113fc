package dataflow

import (
	"fmt"

	"lppart/internal/cdfg"
)

// VerifyGenUse cross-checks the Fig. 3 gen/use sets of a region against
// a direct, order-free enumeration of its reads and writes. It is the
// dataflow half of the pipeline-stage verifiers (cdfg.Verify covers the
// structural IR invariants): the bus-traffic estimate that drives
// pre-selection — and through it every Table 1 row — is only as sound as
// these sets, so partition.Config.Verify re-derives them per cluster:
//
//   - gen[c] must equal exactly the set of non-temporary variables the
//     region writes (gen's definition is traversal-order-free, so full
//     set equality is checkable);
//   - every use[c] member must be read by some operation in the region
//     (use is upward-exposure-filtered, hence a subset of the reads);
//   - a variable read before any write in the region's entry block must
//     appear in use[c] (a spot-check of upward exposure on the one
//     block whose exposure is not path-dependent);
//   - neither set may leak a compiler temporary (temporaries never
//     cross the hardware/software interface).
func VerifyGenUse(p *cdfg.Program, r *cdfg.Region) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("dataflow: verify: region %s gen/use: %s", r.Label, fmt.Sprintf(format, args...))
	}
	ix := NewIndex(p, r.Func)
	gen, use := GenUseOn(ix, r)
	f := r.Func
	name := func(k Key) string {
		if k.Global {
			return p.Globals[k.ID].Name
		}
		return f.Locals[k.ID].Name
	}

	// Direct enumeration of writes and reads, ignoring order.
	writes, reads := ix.NewBitSet(), ix.NewBitSet()
	s := scanner{ix: ix}
	for _, op := range r.Ops() {
		for _, u := range s.opUses(op) {
			reads.Add(keyOfVar(u))
		}
		if op.Code == cdfg.Load {
			reads.Add(keyOfArr(op.Arr))
		}
		if op.Code == cdfg.Store {
			writes.Add(keyOfArr(op.Arr))
		} else if d := op.Def(); d.Valid() {
			writes.Add(keyOfVar(d))
		}
	}

	for _, k := range gen.Keys() {
		if ix.IsTemp(ix.IndexOf(k)) {
			return fail("gen leaks compiler temporary %s", name(k))
		}
		if !writes.Contains(k) {
			return fail("gen claims %s but no operation writes it", name(k))
		}
	}
	for _, k := range writes.Keys() {
		if !ix.IsTemp(ix.IndexOf(k)) && !gen.Contains(k) {
			return fail("%s is written but missing from gen", name(k))
		}
	}
	for _, k := range use.Keys() {
		if ix.IsTemp(ix.IndexOf(k)) {
			return fail("use leaks compiler temporary %s", name(k))
		}
		if !reads.Contains(k) {
			return fail("use claims %s but no operation reads it", name(k))
		}
	}

	// Upward-exposure spot check on the entry block.
	entry := f.Block(r.Entry)
	written := ix.NewBitSet()
	for i := range entry.Ops {
		op := &entry.Ops[i]
		for _, u := range s.opUses(op) {
			ki := ix.IndexOf(keyOfVar(u))
			if !written.ContainsIndex(ki) && !ix.IsTemp(ki) && !use.ContainsIndex(ki) {
				return fail("entry block reads %s before any write but use omits it", name(ix.KeyOf(ki)))
			}
		}
		if op.Code == cdfg.Load {
			ki := ix.IndexOf(keyOfArr(op.Arr))
			if !ix.IsTemp(ki) && !use.ContainsIndex(ki) {
				return fail("entry block loads %s but use omits it", name(ix.KeyOf(ki)))
			}
		}
		if op.Code != cdfg.Store {
			if d := op.Def(); d.Valid() {
				written.Add(keyOfVar(d))
			}
		}
	}
	return nil
}
