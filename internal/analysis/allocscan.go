package analysis

// Allocation-construct detection for the hot-path closure. The scanner
// is syntactic plus types: it recognizes the construct classes that
// compile to runtime allocations — make/new, escaping and slice/map
// composite literals, append without a visible capacity reservation,
// fmt formatting, non-constant string concatenation, escaping closures
// that capture variables, and interface boxing of non-pointer values at
// call boundaries. It deliberately does not attempt whole-program
// escape analysis; the //lint:alloc escape hatch acknowledges the
// deliberate allocations (returned results, amortized slab growth,
// error paths) that remain.
//
// The subset is documented in DESIGN.md §9; constructs outside it (map
// inserts, string([]byte) conversions, channel sends of large values)
// are out of scope for the static gate and stay covered by the runtime
// AllocsPerRun tests.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// allocSites scans one function body (nested literals excluded — they
// have their own nodes) and returns its allocation sites in source
// order.
func (b *builder) allocSites(node *FuncNode, body *ast.BlockStmt) []AllocSite {
	s := &allocScanner{b: b, info: b.pkg.Info}
	s.scan(body)
	return s.sites
}

type allocScanner struct {
	b     *builder
	info  *types.Info
	stack []ast.Node
	sites []AllocSite
	// litSkip marks composite literals already reported through an
	// enclosing &lit, so &T{...} yields one site, not two.
	litSkip map[*ast.CompositeLit]bool
}

func (s *allocScanner) add(pos token.Pos, format string, args ...any) {
	s.sites = append(s.sites, AllocSite{Pos: pos, What: fmt.Sprintf(format, args...)})
}

func (s *allocScanner) parent() ast.Node {
	if len(s.stack) < 2 {
		return nil
	}
	return s.stack[len(s.stack)-2]
}

func (s *allocScanner) scan(root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			s.stack = s.stack[:len(s.stack)-1]
			return true
		}
		s.stack = append(s.stack, n)
		descend := s.visit(n)
		if !descend {
			s.stack = s.stack[:len(s.stack)-1]
		}
		return descend
	})
}

func (s *allocScanner) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncLit:
		if len(s.stack) == 1 {
			return true // the scanned body itself
		}
		if s.litEscapes(n) && s.captures(n) {
			s.add(n.Pos(), "closure captures variables and escapes (allocates its context)")
		}
		return false // nested literal bodies are their own call-graph nodes

	case *ast.CallExpr:
		s.visitCall(n)
		return true

	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				s.add(n.Pos(), "&%s literal allocates", typeLabel(s.info, lit))
				if s.litSkip == nil {
					s.litSkip = make(map[*ast.CompositeLit]bool)
				}
				s.litSkip[lit] = true
			}
		}
		return true

	case *ast.CompositeLit:
		if s.litSkip[n] {
			return true
		}
		if t := s.info.TypeOf(n); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice:
				s.add(n.Pos(), "slice literal allocates its backing array")
			case *types.Map:
				s.add(n.Pos(), "map literal allocates")
			}
		}
		return true

	case *ast.BinaryExpr:
		if n.Op == token.ADD && s.isString(n) && !s.isConst(n) {
			// Flag only the topmost + of a concatenation chain.
			if p, ok := s.parent().(*ast.BinaryExpr); !ok || p.Op != token.ADD || !s.isString(p) {
				s.add(n.OpPos, "string concatenation allocates")
			}
		}
		return true

	case *ast.AssignStmt:
		if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && s.isString(n.Lhs[0]) {
			s.add(n.TokPos, "string += concatenation allocates")
		}
		return true
	}
	return true
}

// visitCall classifies one call expression.
func (s *allocScanner) visitCall(call *ast.CallExpr) {
	// Conversions: value-to-interface conversions box.
	if tv, ok := s.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && types.IsInterface(tv.Type.Underlying()) {
			if s.boxes(call.Args[0]) {
				s.add(call.Pos(), "conversion boxes %s into interface %s",
					typeLabel(s.info, call.Args[0]), tv.Type.String())
			}
		}
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if bi, ok := s.info.Uses[id].(*types.Builtin); ok {
			switch bi.Name() {
			case "make":
				s.add(call.Pos(), "make allocates on each call")
			case "new":
				s.add(call.Pos(), "new allocates on each call")
			case "append":
				s.visitAppend(call)
			}
			return
		}
	}

	// Resolved function calls: fmt formatting, then interface boxing of
	// arguments.
	fn := s.callee(call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		s.add(call.Pos(), "fmt.%s formats into fresh allocations", fn.Name())
		return // don't also report its args as boxed
	}
	sig, ok := s.info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt.Underlying()) && s.boxes(arg) {
			s.add(arg.Pos(), "argument boxes %s into interface parameter (allocates)",
				typeLabel(s.info, arg))
		}
	}
}

// visitAppend applies the capacity heuristic: appending to a slice whose
// local declaration visibly reserves no capacity allocates as it grows,
// and so does appending to a map element, which no owner can reserve
// or reuse (the element is a fresh nil slice for every new or cleared
// key). Other origins the scanner cannot see (parameters, struct
// fields, reslices, call results, 3-arg make) are assumed managed by
// their owner.
func (s *allocScanner) visitAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	first := ast.Unparen(call.Args[0])
	if ix, ok := first.(*ast.IndexExpr); ok {
		if t := s.info.TypeOf(ix.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				s.add(call.Pos(), "append to a map element: grows by reallocation")
				return
			}
		}
	}
	id, ok := first.(*ast.Ident)
	if !ok {
		return
	}
	obj := s.info.Uses[id]
	if obj == nil {
		return
	}
	decl := s.b.prog.declOf[obj]
	bad := ""
	switch d := decl.(type) {
	case *ast.ValueSpec:
		if len(d.Values) == 0 {
			bad = "declared without capacity"
		} else if i := specIndex(d, obj); i >= 0 && i < len(d.Values) {
			bad = initReservesNoCap(s.info, d.Values[i])
		}
	case ast.Expr:
		bad = initReservesNoCap(s.info, d)
	}
	if bad != "" {
		s.add(call.Pos(), "append to %s, %s: grows by reallocation", obj.Name(), bad)
	}
}

// specIndex finds obj's position in a ValueSpec's name list.
func specIndex(spec *ast.ValueSpec, obj types.Object) int {
	for i, n := range spec.Names {
		if n.Name == obj.Name() {
			return i
		}
	}
	return -1
}

// initReservesNoCap classifies a slice initializer: "" means the origin
// reserves capacity (or is invisible), anything else describes why not.
func initReservesNoCap(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		if _, ok := info.TypeOf(e).Underlying().(*types.Slice); ok {
			return "initialized from a literal without capacity"
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if bi, ok := info.Uses[id].(*types.Builtin); ok && bi.Name() == "make" && len(e.Args) == 2 {
				return "made without capacity"
			}
		}
	}
	return ""
}

// litEscapes reports whether a nested literal escapes its creation site:
// direct calls and local bindings (named helpers whose bodies are their
// own nodes) do not; argument/return/composite positions do.
func (s *allocScanner) litEscapes(lit *ast.FuncLit) bool {
	parent := s.parent()
	switch p := parent.(type) {
	case *ast.CallExpr:
		if ast.Unparen(p.Fun) == lit {
			return false // immediately invoked
		}
		return true // passed as an argument
	case *ast.AssignStmt, *ast.ValueSpec:
		// Bound to a variable: the binding index holds it, and calls
		// through the binding resolve to the literal's own node.
		for _, l := range s.b.prog.litBound { //lint:ordered membership test only
			if l == lit {
				return false
			}
		}
		return true
	}
	return true
}

// captures reports whether the literal references variables declared
// outside itself (below package scope) — the closure-context allocation.
func (s *allocScanner) captures(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := s.info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // the literal's own params/locals
		}
		if v.Parent() == nil || v.Pkg() == nil {
			return true
		}
		if s.b.pkg.Types.Scope().Lookup(v.Name()) == v {
			return true // package-level
		}
		found = true
		return false
	})
	return found
}

// callee resolves a call's target function object, or nil.
func (s *allocScanner) callee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := s.info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := s.info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// boxes reports whether passing e into an interface slot allocates:
// concrete non-pointer-shaped values do, pointers/interfaces/nil don't.
func (s *allocScanner) boxes(e ast.Expr) bool {
	tv, ok := s.info.Types[e]
	if !ok || tv.IsNil() {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	return true
}

// isString reports whether e has (underlying) string type.
func (s *allocScanner) isString(e ast.Expr) bool {
	t := s.info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isConst reports whether e folds to a compile-time constant.
func (s *allocScanner) isConst(e ast.Expr) bool {
	tv, ok := s.info.Types[e]
	return ok && tv.Value != nil
}

// typeLabel renders an expression's type for a diagnostic.
func typeLabel(info *types.Info, e ast.Expr) string {
	if t := info.TypeOf(e); t != nil {
		return t.String()
	}
	return "value"
}
