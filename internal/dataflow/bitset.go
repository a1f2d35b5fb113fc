package dataflow

import (
	"math/bits"

	"lppart/internal/cdfg"
)

// Index interns the variable namespace of one function into a dense
// integer range: globals occupy [0, NumGlobals) in declaration order and
// the function's locals follow at [NumGlobals, Len). Every BitSet is
// allocated against an Index; because the global prefix has the same
// layout in every Index of a program, globals-only sets (FuncEffect)
// combine across functions with plain word-wise operations.
type Index struct {
	p        *cdfg.Program
	f        *cdfg.Function
	nGlobals int
	n        int
	words    []int32 // transfer width per slot (1 scalar, Len per array)
	temp     []bool  // compiler-temporary slots (never cross the interface)
}

// NewIndex builds the interned namespace for (p, f). f may be nil for a
// globals-only index.
func NewIndex(p *cdfg.Program, f *cdfg.Function) *Index {
	n := len(p.Globals)
	if f != nil {
		n += len(f.Locals)
	}
	ix := &Index{p: p, f: f, nGlobals: len(p.Globals), n: n,
		words: make([]int32, n), temp: make([]bool, n)}
	fill := func(base int, vars []cdfg.Var) {
		for i := range vars {
			w := int32(1)
			if vars[i].IsArray() {
				w = vars[i].Len
			}
			ix.words[base+i] = w
			ix.temp[base+i] = vars[i].Temp
		}
	}
	fill(0, p.Globals)
	if f != nil {
		fill(ix.nGlobals, f.Locals)
	}
	return ix
}

// Len returns the number of interned slots.
func (ix *Index) Len() int { return ix.n }

// NumGlobals returns the size of the shared global prefix.
func (ix *Index) NumGlobals() int { return ix.nGlobals }

// IndexOf converts a Key to its dense slot.
func (ix *Index) IndexOf(k Key) int {
	if k.Global {
		return k.ID
	}
	return ix.nGlobals + k.ID
}

// KeyOf converts a dense slot back to its Key.
func (ix *Index) KeyOf(i int) Key {
	if i < ix.nGlobals {
		return Key{Global: true, ID: i}
	}
	return Key{ID: i - ix.nGlobals}
}

// IsTemp reports whether the slot names a compiler temporary.
func (ix *Index) IsTemp(i int) bool { return ix.temp[i] }

// BitSet is a dense variable set over an Index. The zero value is not
// usable; allocate with Index.NewBitSet. Methods with a -With suffix
// mutate the receiver's backing words in place and never allocate.
type BitSet struct {
	ix *Index
	w  []uint64
}

// NewBitSet allocates an empty set over the index's namespace.
func (ix *Index) NewBitSet() BitSet {
	return BitSet{ix: ix, w: make([]uint64, (ix.n+63)/64)}
}

// Index returns the namespace the set is allocated against.
func (s BitSet) Index() *Index { return s.ix }

// AddIndex inserts the dense slot i.
func (s BitSet) AddIndex(i int) { s.w[i>>6] |= 1 << (uint(i) & 63) }

// Add inserts the variable k.
func (s BitSet) Add(k Key) { s.AddIndex(s.ix.IndexOf(k)) }

// ContainsIndex reports membership of the dense slot i.
func (s BitSet) ContainsIndex(i int) bool { return s.w[i>>6]&(1<<(uint(i)&63)) != 0 }

// Contains reports membership of the variable k.
func (s BitSet) Contains(k Key) bool { return s.ContainsIndex(s.ix.IndexOf(k)) }

// Clear empties the set in place.
func (s BitSet) Clear() {
	for i := range s.w {
		s.w[i] = 0
	}
}

// UnionWith adds every element of t, in place. t may come from another
// function's index: only the common word prefix (in particular the shared
// global layout) participates.
func (s BitSet) UnionWith(t BitSet) {
	n := len(s.w)
	if len(t.w) < n {
		n = len(t.w)
	}
	for i := 0; i < n; i++ {
		s.w[i] |= t.w[i]
	}
}

// IntersectWith keeps only elements also in t, in place.
func (s BitSet) IntersectWith(t BitSet) {
	n := len(s.w)
	if len(t.w) < n {
		n = len(t.w)
	}
	for i := 0; i < n; i++ {
		s.w[i] &= t.w[i]
	}
	for i := n; i < len(s.w); i++ {
		s.w[i] = 0
	}
}

// MinusWith removes every element of t, in place.
func (s BitSet) MinusWith(t BitSet) {
	n := len(s.w)
	if len(t.w) < n {
		n = len(t.w)
	}
	for i := 0; i < n; i++ {
		s.w[i] &^= t.w[i]
	}
}

// Intersect returns a new set with the elements present in both s and t.
func (s BitSet) Intersect(t BitSet) BitSet {
	u := s.ix.NewBitSet()
	copy(u.w, s.w)
	u.IntersectWith(t)
	return u
}

// Union returns a new set with all elements of s and t.
func (s BitSet) Union(t BitSet) BitSet {
	u := s.ix.NewBitSet()
	copy(u.w, s.w)
	u.UnionWith(t)
	return u
}

// Minus returns a new set with the elements of s not in t.
func (s BitSet) Minus(t BitSet) BitSet {
	u := s.ix.NewBitSet()
	copy(u.w, s.w)
	u.MinusWith(t)
	return u
}

// MaskGlobals drops every non-global slot, in place.
func (s BitSet) MaskGlobals() {
	ng := s.ix.nGlobals
	for wi := range s.w {
		lo := wi * 64
		if lo+64 <= ng {
			continue
		}
		if lo >= ng {
			s.w[wi] = 0
			continue
		}
		s.w[wi] &= (1 << uint(ng-lo)) - 1
	}
}

// Len returns the cardinality.
func (s BitSet) Len() int {
	n := 0
	for _, w := range s.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEachIndex visits the elements in ascending slot order (globals in
// declaration order, then locals) without allocating.
func (s BitSet) ForEachIndex(visit func(i int)) {
	for wi, w := range s.w {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			visit(wi*64 + b)
			w &= w - 1
		}
	}
}

// Keys returns the elements in deterministic order (globals first in
// declaration order, then locals by ID — ascending slot order).
func (s BitSet) Keys() []Key {
	keys := make([]Key, 0, s.Len())
	s.ForEachIndex(func(i int) { keys = append(keys, s.ix.KeyOf(i)) })
	return keys
}

// Words returns the total transfer width of the set in 32-bit words:
// 1 per scalar, the element count per array.
func (s BitSet) Words() int {
	total := 0
	s.ForEachIndex(func(i int) { total += int(s.ix.words[i]) })
	return total
}

// IntersectWords returns the transfer width of s ∩ t — the Words of
// s.Intersect(t) — without materializing the intersection.
func (s BitSet) IntersectWords(t BitSet) int {
	n := len(s.w)
	if len(t.w) < n {
		n = len(t.w)
	}
	total := 0
	for wi := 0; wi < n; wi++ {
		for w := s.w[wi] & t.w[wi]; w != 0; w &= w - 1 {
			total += int(s.ix.words[wi*64+bits.TrailingZeros64(w)])
		}
	}
	return total
}
