// Package hotpathalloc forbids heap allocation in //rfp:hotpath functions.
//
// The RFP fast path — core Post/Poll, slot parsing, the telemetry record
// hooks — is measured in nanoseconds of host time per simulated verb; a
// single heap allocation (and the GC pressure it feeds) costs more than the
// work itself and, worse, makes BenchmarkRecorderAllocs-style guarantees
// ("0 allocs/op on the record path") silently rot. Functions annotated
// //rfp:hotpath promise not to allocate, and this analyzer enforces the
// promise at vet time so the runtime benchmark and the static claim agree.
//
// Flagged inside an annotated function (closure bodies included):
//
//   - map and slice composite literals, make, new
//   - &T{...} literals that escape (returned, passed to a call, stored
//     into a field or composite); a &T{...} bound to a local that stays
//     local is stack-allocated and legal
//   - append whose destination is not persistent state reached through the
//     receiver or a pointer parameter (c.buf = append(c.buf[:0], ...) is
//     the sanctioned amortized-scratch idiom; append to a fresh local
//     grows a heap slice every call)
//   - map assignment (inserts may grow the table)
//   - a front re-slice x = x[k:] of persistent state (the pop-front FIFO
//     idiom): it gives the consumed capacity away for good, so the append
//     that refills x reallocates again and again — legal line by line, an
//     allocation per operation in effect. x = x[:0] keeps the capacity and
//     is the sanctioned reset; re-slicing a local view is free
//   - fmt.* calls (every verb formats through an allocating path)
//   - concrete-to-interface conversions, in call arguments, assignments,
//     returns and explicit conversions (the boxed value escapes)
//   - string<->[]byte conversions (copying conversions)
//   - function literals that escape (call argument, return, go statement);
//     deferred closures are exempt — the compiler open-codes them — as are
//     literals bound to a local and only invoked
//
// The check is intentionally intra-function: allocation does not propagate
// through calls, because cold slow paths (reconnect, error formatting) are
// legally reachable from hot functions behind rare branches. Annotate exactly the
// functions whose *own bodies* must stay clean, and justify deliberate
// error-path allocations with //rfpvet:allow hotpathalloc <reason>.
package hotpathalloc

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"rfp/internal/analysis"
)

// Analyzer implements the hotpathalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc: "forbid heap allocation in //rfp:hotpath functions: composite literals that escape, " +
		"make/new, map growth, non-scratch append, fmt calls, interface conversions and escaping closures",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		fmtName := analysis.ImportName(f, "fmt")
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !analysis.FuncHasDirective(fn, "hotpath") {
				continue
			}
			check(pass, fn, fmtName)
		}
	}
	return nil
}

// check walks one annotated function.
func check(pass *analysis.Pass, fn *ast.FuncDecl, fmtName string) {
	parents := analysis.Parents(fn)
	persistent := persistentRoots(fn)
	report := func(pos token.Pos, desc string, args ...any) {
		pass.Reportf(pos, "hot-path function %s allocates: "+desc+
			"; hoist it off the hot path or justify with //rfpvet:allow hotpathalloc <reason>",
			append([]any{fn.Name.Name}, args...)...)
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			checkCompositeLit(pass, n, parents, report)
		case *ast.CallExpr:
			checkCall(pass, n, parents, persistent, fmtName, report)
		case *ast.AssignStmt:
			checkAssign(pass, n, persistent, report)
		case *ast.ReturnStmt:
			checkReturn(pass, fn, n, report)
		case *ast.FuncLit:
			checkFuncLit(n, parents, report)
		}
		return true
	})
}

// persistentRoots collects the identifiers through which an append may
// legally reuse storage: the receiver and pointer-typed parameters.
func persistentRoots(fn *ast.FuncDecl) map[string]bool {
	roots := make(map[string]bool)
	if fn.Recv != nil {
		for _, field := range fn.Recv.List {
			for _, name := range field.Names {
				roots[name.Name] = true
			}
		}
	}
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			if _, ptr := field.Type.(*ast.StarExpr); !ptr {
				continue
			}
			for _, name := range field.Names {
				roots[name.Name] = true
			}
		}
	}
	return roots
}

// typeOf returns the best-effort type of an expression, nil when unknown.
// Info.TypeOf (rather than the raw Types map) also resolves identifiers,
// which the checker records only in Defs/Uses.
func typeOf(pass *analysis.Pass, e ast.Expr) types.Type {
	if pass.Pkg == nil || pass.Pkg.Info == nil {
		return nil
	}
	t := pass.Pkg.Info.TypeOf(e)
	if t == nil {
		return nil
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.Invalid {
		return nil
	}
	return t
}

// isInterface reports whether t is a non-nil interface type.
func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// isConcrete reports whether t is a known non-interface type (untyped nil
// and unknown types are not concrete: converting them boxes nothing).
func isConcrete(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return !isInterface(t)
}

// checkCompositeLit flags map and slice literals. Address-taken struct
// literals are handled by their enclosing &-expression; value struct and
// array literals live on the stack.
func checkCompositeLit(pass *analysis.Pass, lit *ast.CompositeLit, parents map[ast.Node]ast.Node, report func(token.Pos, string, ...any)) {
	if t := typeOf(pass, lit); t != nil {
		switch t.Underlying().(type) {
		case *types.Map:
			report(lit.Pos(), "map literal")
			return
		case *types.Slice:
			report(lit.Pos(), "slice literal")
			return
		default:
			if _, addressed := parents[lit].(*ast.UnaryExpr); !addressed {
				return
			}
		}
	}
	switch tt := lit.Type.(type) {
	case *ast.MapType:
		report(lit.Pos(), "map literal")
		return
	case *ast.ArrayType:
		if tt.Len == nil {
			report(lit.Pos(), "slice literal")
		}
		return
	}
	// &T{...}: heap-allocated only if the pointer escapes.
	if and, ok := parents[lit].(*ast.UnaryExpr); ok && and.Op == token.AND {
		if escapes(and, parents) {
			report(lit.Pos(), "&%s literal escapes", baseName(lit.Type))
		}
	}
}

// escapes reports whether the value produced at expression e leaves the
// frame: it is returned, passed to a call, stored into a composite, field,
// index or dereference, sent on a channel, or — when bound to a local —
// any later use of that local does one of the above.
func escapes(e ast.Expr, parents map[ast.Node]ast.Node) bool {
	switch p := parents[e].(type) {
	case *ast.ParenExpr:
		return escapes(p, parents)
	case *ast.CallExpr, *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
		return true
	case *ast.AssignStmt:
		// Find the LHS this RHS lands in; storing into anything but a
		// plain local identifier escapes.
		for i, rhs := range p.Rhs {
			if rhs != e || i >= len(p.Lhs) {
				continue
			}
			lhs, ok := p.Lhs[i].(*ast.Ident)
			if !ok {
				return true
			}
			// Bound to a local: escape iff a later use of the local does.
			return localEscapes(lhs, p, parents)
		}
		return true
	case *ast.ValueSpec:
		for i, v := range p.Values {
			if v == e && i < len(p.Names) {
				return localEscapes(p.Names[i], p, parents)
			}
		}
		return true
	case nil:
		return true
	default:
		return false
	}
}

// localEscapes scans the enclosing function body for uses of the local
// name bound at binding, and reports whether any use escapes.
func localEscapes(name *ast.Ident, binding ast.Node, parents map[ast.Node]ast.Node) bool {
	// Walk up to the enclosing function body.
	var body *ast.BlockStmt
	for n := parents[binding]; n != nil; n = parents[n] {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body != nil {
			break
		}
	}
	if body == nil {
		return true
	}
	esc := false
	ast.Inspect(body, func(n ast.Node) bool {
		if esc {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || id.Name != name.Name || id == name {
			return true
		}
		switch p := parents[id].(type) {
		case *ast.CallExpr, *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
			esc = true
		case *ast.AssignStmt:
			for _, rhs := range p.Rhs {
				if rhs == id {
					esc = true
				}
			}
		}
		return true
	})
	return esc
}

// checkCall flags make/new, fmt calls, non-scratch append, copying string
// conversions and concrete-to-interface argument conversions.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, parents map[ast.Node]ast.Node, persistent map[string]bool, fmtName string, report func(token.Pos, string, ...any)) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch {
		case fun.Name == "make" && fun.Obj == nil:
			report(call.Pos(), "make")
			return
		case fun.Name == "new" && fun.Obj == nil:
			report(call.Pos(), "new")
			return
		case fun.Name == "append" && fun.Obj == nil:
			if len(call.Args) > 0 && !appendsToPersistent(call.Args[0], persistent) {
				report(call.Pos(), "append to non-persistent slice may grow"+
					" (the sanctioned idiom is scratch reuse through the receiver: c.buf = append(c.buf[:0], ...))")
			}
			return
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok && analysis.IsPkgRef(id, fmtName) {
			report(call.Pos(), "fmt.%s call", fun.Sel.Name)
			return
		}
	}

	// Explicit conversions: T(x) for interface T, string([]byte), []byte(string).
	if tv, ok := typeAndValue(pass, call.Fun); ok && tv.IsType() && len(call.Args) == 1 {
		target, operand := tv.Type, typeOf(pass, call.Args[0])
		if isInterface(target) && isConcrete(operand) {
			report(call.Pos(), "conversion of %s to interface %s", operand, target)
		} else if copyingConversion(target, operand) {
			report(call.Pos(), "copying string conversion")
		}
		return
	}

	// Implicit interface conversions at argument positions.
	sig, _ := typeOf(pass, call.Fun).(*types.Signature)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		pt := paramType(sig, i, call)
		if isInterface(pt) && isConcrete(typeOf(pass, arg)) {
			report(arg.Pos(), "argument %s converts to interface %s", typeOf(pass, arg), pt)
		}
	}
}

// typeAndValue fetches the raw TypeAndValue for e, when known.
func typeAndValue(pass *analysis.Pass, e ast.Expr) (types.TypeAndValue, bool) {
	if pass.Pkg == nil || pass.Pkg.Info == nil {
		return types.TypeAndValue{}, false
	}
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return types.TypeAndValue{}, false
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.Invalid {
		return types.TypeAndValue{}, false
	}
	return tv, true
}

// paramType resolves the parameter type argument i lands in, unwrapping
// the variadic tail unless the call forwards a slice with "...".
func paramType(sig *types.Signature, i int, call *ast.CallExpr) types.Type {
	params := sig.Params()
	if params.Len() == 0 {
		return nil
	}
	if sig.Variadic() && i >= params.Len()-1 {
		if call.Ellipsis.IsValid() {
			return params.At(params.Len() - 1).Type()
		}
		if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i < params.Len() {
		return params.At(i).Type()
	}
	return nil
}

// copyingConversion reports a string<->[]byte conversion (both copy).
func copyingConversion(target, operand types.Type) bool {
	if target == nil || operand == nil {
		return false
	}
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isBytes := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	}
	return (isStr(target) && isBytes(operand)) || (isBytes(target) && isStr(operand))
}

// appendsToPersistent reports whether an append (or re-slice) destination is
// a selector/index/slice path rooted at the receiver or a pointer parameter
// (amortized scratch reuse). A bare local is never persistent.
func appendsToPersistent(dst ast.Expr, persistent map[string]bool) bool {
	rooted := false
	for {
		switch e := dst.(type) {
		case *ast.SelectorExpr:
			dst, rooted = e.X, true
		case *ast.IndexExpr:
			dst, rooted = e.X, true
		case *ast.SliceExpr:
			dst = e.X
		case *ast.ParenExpr:
			dst = e.X
		case *ast.StarExpr:
			dst = e.X
		case *ast.Ident:
			return rooted && persistent[e.Name]
		default:
			return false
		}
	}
}

// checkAssign flags map stores, concrete-to-interface assignments and front
// re-slices of persistent state.
func checkAssign(pass *analysis.Pass, as *ast.AssignStmt, persistent map[string]bool, report func(token.Pos, string, ...any)) {
	for _, lhs := range as.Lhs {
		if idx, ok := lhs.(*ast.IndexExpr); ok {
			if _, isMap := typeOf(pass, idx.X).(*types.Map); isMap {
				report(lhs.Pos(), "map assignment may grow the table")
			}
		}
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt, rt := typeOf(pass, lhs), typeOf(pass, as.Rhs[i])
		if isInterface(lt) && isConcrete(rt) {
			report(as.Rhs[i].Pos(), "assignment converts %s to interface %s", rt, lt)
		}
		if as.Tok == token.ASSIGN && frontReslice(pass, lhs, as.Rhs[i]) && appendsToPersistent(lhs, persistent) {
			report(as.Rhs[i].Pos(), "front re-slice of %s gives the capacity away; every later append reallocates"+
				" (pop through a head index or a ring, reset with [:0])", types.ExprString(lhs))
		}
	}
}

// frontReslice reports whether rhs is lhs[k:] for the same slice expression
// lhs, with no high bound and k not the constant 0.
func frontReslice(pass *analysis.Pass, lhs, rhs ast.Expr) bool {
	sl, ok := ast.Unparen(rhs).(*ast.SliceExpr)
	if !ok || sl.Low == nil || sl.High != nil || sl.Max != nil {
		return false
	}
	if types.ExprString(ast.Unparen(sl.X)) != types.ExprString(ast.Unparen(lhs)) {
		return false
	}
	if tv, ok := typeAndValue(pass, sl.Low); ok && tv.Value != nil && constant.Sign(tv.Value) == 0 {
		return false
	}
	if t := typeOf(pass, lhs); t != nil {
		_, isSlice := t.Underlying().(*types.Slice)
		return isSlice
	}
	return true
}

// checkReturn flags concrete values returned through interface results.
func checkReturn(pass *analysis.Pass, fn *ast.FuncDecl, ret *ast.ReturnStmt, report func(token.Pos, string, ...any)) {
	if pass.Pkg == nil || pass.Pkg.Info == nil || fn.Type.Results == nil {
		return
	}
	obj := pass.Pkg.Info.Defs[fn.Name]
	if obj == nil {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, res := range ret.Results {
		if isInterface(sig.Results().At(i).Type()) && isConcrete(typeOf(pass, res)) {
			report(res.Pos(), "return converts %s to interface %s", typeOf(pass, res), sig.Results().At(i).Type())
		}
	}
}

// checkFuncLit flags closures that escape. Deferred closures are
// open-coded by the compiler; a literal bound to a local and merely
// invoked stays on the stack.
func checkFuncLit(lit *ast.FuncLit, parents map[ast.Node]ast.Node, report func(token.Pos, string, ...any)) {
	switch p := parents[lit].(type) {
	case *ast.DeferStmt:
		return
	case *ast.GoStmt:
		report(lit.Pos(), "go closure")
		return
	case *ast.CallExpr:
		if p.Fun == lit {
			// The literal is the callee: defer func(){}() is open-coded,
			// go func(){}() starts a goroutine whose closure escapes, and a
			// plain immediately-invoked func(){...}() stays on the stack.
			switch parents[p].(type) {
			case *ast.GoStmt:
				report(lit.Pos(), "go closure")
			}
			return
		}
		report(lit.Pos(), "function literal escapes as a call argument")
	case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
		report(lit.Pos(), "function literal escapes")
	}
}

// baseName renders a composite literal's type for the diagnostic.
func baseName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return t.Sel.Name
	default:
		return "composite"
	}
}
