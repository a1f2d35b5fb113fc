package dataflow

import (
	"testing"
	"testing/quick"

	"lppart/internal/apps"
	"lppart/internal/behav"
	"lppart/internal/cdfg"
)

func build(t *testing.T, src string) *cdfg.Program {
	t.Helper()
	prog, err := behav.Parse("t", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ir, err := cdfg.Build(prog)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return ir
}

func loopRegion(t *testing.T, p *cdfg.Program, fn string) *cdfg.Region {
	t.Helper()
	f := p.Func(fn)
	for _, r := range f.Root.AllRegions() {
		if r.Kind == cdfg.RegionLoop {
			return r
		}
	}
	t.Fatalf("no loop region in %s", fn)
	return nil
}

func names(p *cdfg.Program, f *cdfg.Function, s BitSet) map[string]bool {
	out := make(map[string]bool)
	for _, k := range s.Keys() {
		if k.Global {
			out[p.Globals[k.ID].Name] = true
		} else {
			out[f.Locals[k.ID].Name] = true
		}
	}
	return out
}

// rawIndex builds a synthetic namespace (16 globals + 16 locals, all
// scalars) for pure set-algebra tests.
func rawIndex() *Index {
	n := 32
	ix := &Index{nGlobals: 16, n: n, words: make([]int32, n), temp: make([]bool, n)}
	for i := range ix.words {
		ix.words[i] = 1
	}
	return ix
}

func TestSetOps(t *testing.T) {
	ix := rawIndex()
	a, b := ix.NewBitSet(), ix.NewBitSet()
	k1, k2, k3 := Key{true, 0}, Key{true, 1}, Key{false, 0}
	a.Add(k1)
	a.Add(k2)
	b.Add(k2)
	b.Add(k3)
	if got := a.Union(b).Len(); got != 3 {
		t.Errorf("union len = %d, want 3", got)
	}
	inter := a.Intersect(b)
	if inter.Len() != 1 || !inter.Contains(k2) {
		t.Errorf("intersect = %v", inter.Keys())
	}
	minus := a.Minus(b)
	if minus.Len() != 1 || !minus.Contains(k1) {
		t.Errorf("minus = %v", minus.Keys())
	}
	keys := a.Keys()
	if len(keys) != 2 || keys[0] != k1 || keys[1] != k2 {
		t.Errorf("keys = %v", keys)
	}
	if got := a.Words(); got != 2 {
		t.Errorf("words = %d, want 2", got)
	}
	a.MaskGlobals()
	if a.Len() != 2 {
		t.Errorf("mask dropped globals: %v", a.Keys())
	}
	b.MaskGlobals()
	if b.Len() != 1 || !b.Contains(k2) {
		t.Errorf("mask kept local: %v", b.Keys())
	}
}

func TestSetOpsProperties(t *testing.T) {
	ix := rawIndex()
	mk := func(ids []uint8) BitSet {
		s := ix.NewBitSet()
		for _, id := range ids {
			s.Add(Key{Global: id%2 == 0, ID: int(id % 16)})
		}
		return s
	}
	// |A∪B| + |A∩B| == |A| + |B|
	f := func(as, bs []uint8) bool {
		a, b := mk(as), mk(bs)
		return a.Union(b).Len()+a.Intersect(b).Len() == a.Len()+b.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// A\B and A∩B partition A.
	g := func(as, bs []uint8) bool {
		a, b := mk(as), mk(bs)
		return a.Minus(b).Len()+a.Intersect(b).Len() == a.Len()
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	// In-place forms agree with the allocating forms.
	h := func(as, bs []uint8) bool {
		a, b := mk(as), mk(bs)
		u := a.Union(b)
		a.UnionWith(b)
		return a.Len() == u.Len()
	}
	if err := quick.Check(h, nil); err != nil {
		t.Error(err)
	}
}

func TestGenUseSimpleLoop(t *testing.T) {
	p := build(t, `
var in[8];
var out[8];
var scale;
func main() {
	var i;
	for i = 0; i < 8; i = i + 1 {
		out[i] = in[i] * scale;
	}
}
`)
	r := loopRegion(t, p, "main")
	gen, use := GenUse(p, r)
	g := names(p, r.Func, gen)
	u := names(p, r.Func, use)
	if !u["in"] || !u["scale"] || !u["i"] {
		t.Errorf("use = %v, want in, scale, i", u)
	}
	if u["out"] {
		t.Errorf("out is only written, must not be in use: %v", u)
	}
	if !g["out"] || !g["i"] {
		t.Errorf("gen = %v, want out, i", g)
	}
	if g["in"] || g["scale"] {
		t.Errorf("gen = %v contains read-only vars", g)
	}
	// Temporaries must not appear.
	for name := range u {
		if len(name) > 0 && name[0] == '%' {
			t.Errorf("temporary %q leaked into use", name)
		}
	}
}

func TestGenUseUpwardExposure(t *testing.T) {
	// x is written before read inside the block: not an upward-exposed
	// use. y is read before written: both gen and use.
	p := build(t, `
var x; var y;
func main() {
	x = 5;
	x = x + 1;
	y = y + x;
}
`)
	gen, use := GenUse(p, p.Func("main").Root)
	u := names(p, p.Func("main"), use)
	g := names(p, p.Func("main"), gen)
	if u["x"] {
		t.Errorf("x written before read, use = %v", u)
	}
	if !u["y"] {
		t.Errorf("y read before write, use = %v", u)
	}
	if !g["x"] || !g["y"] {
		t.Errorf("gen = %v", g)
	}
}

func TestGenUseArrayNotKilled(t *testing.T) {
	// Writing one element of an array must not kill later loads (partial
	// definition): the array stays in use.
	p := build(t, `
var a[4];
func main() {
	a[0] = 1;
	a[1] = a[0] + 1;
}
`)
	gen, use := GenUse(p, p.Func("main").Root)
	u := names(p, p.Func("main"), use)
	g := names(p, p.Func("main"), gen)
	if !u["a"] || !g["a"] {
		t.Errorf("array gen/use wrong: gen=%v use=%v", g, u)
	}
}

func TestWords(t *testing.T) {
	p := build(t, `
var big[100];
var s;
func main() {
	var loc;
	loc = s;
	big[0] = loc;
}
`)
	f := p.Func("main")
	gen, use := GenUse(p, f.Root)
	// gen = {big, loc}: 100 + 1 = 101 words. use = {s}: 1 word.
	if got := gen.Words(); got != 101 {
		t.Errorf("gen words = %d, want 101", got)
	}
	if got := use.Words(); got != 1 {
		t.Errorf("use words = %d, want 1", got)
	}
}

func TestSurroundingsLinear(t *testing.T) {
	// Cluster = the middle loop. "before" generates in[], "after" uses
	// out[].
	p := build(t, `
var in[8]; var mid[8]; var out[8];
func main() {
	var i;
	for i = 0; i < 8; i = i + 1 { in[i] = i; }
	for i = 0; i < 8; i = i + 1 { mid[i] = in[i] * 3; }
	for i = 0; i < 8; i = i + 1 { out[i] = mid[i] + 1; }
}
`)
	f := p.Func("main")
	var loops []*cdfg.Region
	for _, r := range f.Root.AllRegions() {
		if r.Kind == cdfg.RegionLoop {
			loops = append(loops, r)
		}
	}
	if len(loops) != 3 {
		t.Fatalf("want 3 loops, got %d", len(loops))
	}
	mid := loops[1]
	genPred, useSucc := Surroundings(p, mid)
	gp := names(p, f, genPred)
	us := names(p, f, useSucc)
	if !gp["in"] {
		t.Errorf("genPred = %v, want in", gp)
	}
	if gp["out"] {
		t.Errorf("genPred = %v must not include out (written after)", gp)
	}
	if !us["mid"] {
		t.Errorf("useSucc = %v, want mid", us)
	}
	if us["in"] {
		t.Errorf("useSucc = %v must not include in (only read before/within)", us)
	}
	// Fig. 3 step 1: data to ship in = gen[C_pred] ∩ use[c].
	_, use := GenUse(p, mid)
	in := genPred.Intersect(use)
	if got := in.Words(); got != 8+1 && got != 8 { // in[] plus possibly i
		t.Errorf("inbound words = %d, want 8 or 9", got)
	}
}

func TestSurroundingsLoopEnclosed(t *testing.T) {
	// A cluster inside an outer loop sees the rest of the loop on both
	// sides (it re-executes around each invocation).
	p := build(t, `
var a[4]; var b[4];
func main() {
	var i; var j; var t;
	for i = 0; i < 4; i = i + 1 {
		t = a[i];
		for j = 0; j < 4; j = j + 1 {
			b[j] = b[j] + t;
		}
		a[i] = b[i];
	}
}
`)
	f := p.Func("main")
	var inner *cdfg.Region
	for _, r := range f.Root.AllRegions() {
		if r.Kind == cdfg.RegionLoop && r.Depth() == 2 {
			inner = r
		}
	}
	if inner == nil {
		t.Fatal("no inner loop")
	}
	genPred, useSucc := Surroundings(p, inner)
	gp := names(p, f, genPred)
	us := names(p, f, useSucc)
	// a[i] = b[i] is textually after the inner loop but runs "before"
	// the next invocation too.
	if !gp["a"] {
		t.Errorf("genPred = %v, want a (loop wrap-around)", gp)
	}
	if !us["b"] {
		t.Errorf("useSucc = %v, want b", us)
	}
}

func TestSurroundingsOtherFunctions(t *testing.T) {
	p := build(t, `
var shared;
func producer() { shared = 42; }
func main() {
	var i; var s;
	producer();
	for i = 0; i < 4; i = i + 1 { s = s + shared; }
	shared = s;
}
`)
	r := loopRegion(t, p, "main")
	genPred, _ := Surroundings(p, r)
	gp := names(p, r.Func, genPred)
	if !gp["shared"] {
		t.Errorf("genPred = %v, want shared (written by producer)", gp)
	}
}

func TestFuncEffectGlobalsOnly(t *testing.T) {
	p := build(t, `
var g1; var g2;
func f(a) {
	var loc;
	loc = a + g1;
	g2 = loc;
	return loc;
}
func main() { var x; x = f(1); }
`)
	gen, use := FuncEffect(p, p.Func("f"))
	g := names(p, p.Func("f"), gen)
	u := names(p, p.Func("f"), use)
	if !u["g1"] || len(u) != 1 {
		t.Errorf("use = %v, want only g1", u)
	}
	if !g["g2"] || len(g) != 1 {
		t.Errorf("gen = %v, want only g2", g)
	}
}

func TestGenUseDisjointTempInvariant(t *testing.T) {
	// Invariant over several programs: no compiler temp ever appears in
	// gen or use of any region.
	sources := []string{
		"var a[4]; func main() { var i; for i=0;i<4;i=i+1 { a[i] = (i*3+1)*(i-2); } }",
		"var x; func main() { if x > 0 { x = x*x + x/2; } else { x = -x; } }",
		"func f(v) { return v*2+1; } func main() { var y; y = f(3) + f(4); }",
	}
	for _, src := range sources {
		p := build(t, src)
		for _, r := range p.Regions() {
			gen, use := GenUse(p, r)
			for _, s := range []BitSet{gen, use} {
				for _, k := range s.Keys() {
					if !k.Global && r.Func.Locals[k.ID].Temp {
						t.Errorf("%s: temp %s in gen/use of %s", src,
							r.Func.Locals[k.ID].Name, r.Label)
					}
				}
			}
		}
	}
}

// TestAllRegionSetsMatchesPerRegion: the one-pass computation must give
// every region of every application, and of a multi-function program
// whose surroundings cross functions, exactly the sets GenUseOn and
// SurroundingsOn compute for that region alone.
func TestAllRegionSetsMatchesPerRegion(t *testing.T) {
	progs := []*cdfg.Program{build(t, `
var a[8]; var g;
func fill() { var i; for i = 0; i < 8; i = i + 1 { a[i] = i; } }
func bump() { g = g + a[2]; }
func main() {
	var i; var s;
	fill();
	for i = 0; i < 8; i = i + 1 { s = s + a[i] * g; }
	bump();
	g = s;
}
`)}
	for _, a := range apps.All() {
		ir, err := a.Build()
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		progs = append(progs, ir)
	}
	same := func(x, y BitSet) bool {
		kx, ky := x.Keys(), y.Keys()
		if len(kx) != len(ky) {
			return false
		}
		for i := range kx {
			if kx[i] != ky[i] {
				return false
			}
		}
		return true
	}
	for _, p := range progs {
		regions := p.Regions()
		sets := AllRegionSets(p)
		if len(sets) != len(regions) {
			t.Fatalf("%s: %d set entries for %d regions", p.Name, len(sets), len(regions))
		}
		for i, r := range regions {
			ix := NewIndex(p, r.Func)
			gen, use := GenUseOn(ix, r)
			genPred, useSucc := SurroundingsOn(ix, r)
			s := sets[i]
			if !same(s.Gen, gen) || !same(s.Use, use) || !same(s.GenPred, genPred) || !same(s.UseSucc, useSucc) {
				t.Errorf("%s %s: one-pass sets differ from the per-region computation", p.Name, r.Label)
			}
			if got, want := s.GenPred.IntersectWords(s.Use), genPred.Intersect(use).Words(); got != want {
				t.Errorf("%s %s: IntersectWords = %d, Intersect().Words() = %d", p.Name, r.Label, got, want)
			}
		}
	}
}
