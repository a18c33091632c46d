// Package errdrop forbids discarding verb-layer errors and completion
// statuses in the RFP data-path packages.
//
// In this simulator an error from the verb layer is not advisory: a failed
// Write means the request never reached the server ring, a failed
// reconnect means the ring geometry is stale, and a CQE carries the
// completion status the paper's recovery protocol keys off. Discarding one
// desynchronizes client bookkeeping (outstanding, slot states) from
// simulated reality, which surfaces later as a hung await or a corrupt
// slot — far from the drop.
//
// Inside rfp/internal/core, rfp/internal/rnic and rfp/internal/faults
// (subpackages included), this analyzer flags
//
//   - a call used as a bare statement (or go statement) whose results
//     include an error or an rnic.CQE
//   - an error or CQE result assigned to the blank identifier, whether in
//     a 1:1 assignment (`_ = c.reconnect(p)`) or a tuple position
//     (`v, _ := c.fetch(p)`)
//
// Deferred calls are exempt: `defer qp.Close()` is the conventional
// cleanup shape and failing cleanup has no one to report to. A genuinely
// deliberate drop — Close's best-effort reconnect before teardown — is
// annotated //rfpvet:allow errdrop <reason> at the site, which is exactly
// the audit trail the invariant wants.
//
// Result types resolve through go/types when available, with a syntactic
// fallback through the program call graph (callee declared results) for
// calls the tolerant checker could not type.
package errdrop

import (
	"go/ast"
	"go/types"
	"strings"

	"rfp/internal/analysis"
)

// targetPrefixes scope the invariant to the packages where a verb-layer
// result is load-bearing.
var targetPrefixes = []string{
	"rfp/internal/core",
	"rfp/internal/rnic",
	"rfp/internal/faults",
}

// Analyzer implements the errdrop check.
var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc: "verb-layer error and completion-status (CQE) results in core/rnic/faults must be handled, " +
		"not dropped as bare statements or blank assignments",
	Run: run,
}

func run(pass *analysis.Pass) error {
	applies := false
	for _, p := range targetPrefixes {
		if pass.PkgPath == p || strings.HasPrefix(pass.PkgPath, p) {
			applies = true
			break
		}
	}
	if !applies {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDiscardedCall(pass, call, "statement")
				}
			case *ast.GoStmt:
				checkDiscardedCall(pass, n.Call, "go statement")
			case *ast.AssignStmt:
				checkBlankAssign(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkDiscardedCall flags a call whose entire result list is dropped.
func checkDiscardedCall(pass *analysis.Pass, call *ast.CallExpr, how string) {
	for _, kind := range resultKinds(pass, call) {
		if kind != "" {
			pass.Reportf(call.Pos(),
				"%s discards the %s returned by %s; handle it or annotate //rfpvet:allow errdrop <reason>",
				how, kind, calleeText(call))
			return
		}
	}
}

// checkBlankAssign flags error/CQE results landing in the blank identifier.
func checkBlankAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	// Tuple form: v, _ := call().
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		kinds := resultKinds(pass, call)
		if len(kinds) != len(as.Lhs) {
			return
		}
		for i, lhs := range as.Lhs {
			if isBlank(lhs) && kinds[i] != "" {
				pass.Reportf(lhs.Pos(),
					"blank identifier discards the %s returned by %s; handle it or annotate //rfpvet:allow errdrop <reason>",
					kinds[i], calleeText(call))
			}
		}
		return
	}
	// Pairwise form: _ = call().
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		if !isBlank(lhs) {
			continue
		}
		call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
		if !ok {
			continue
		}
		kinds := resultKinds(pass, call)
		if len(kinds) == 1 && kinds[0] != "" {
			pass.Reportf(lhs.Pos(),
				"blank identifier discards the %s returned by %s; handle it or annotate //rfpvet:allow errdrop <reason>",
				kinds[0], calleeText(call))
		}
	}
}

// resultKinds describes each result of call: "error", "completion status
// (CQE)", or "" for results the invariant does not cover. Nil when the
// call's results cannot be determined at all.
func resultKinds(pass *analysis.Pass, call *ast.CallExpr) []string {
	if pass.Pkg != nil && pass.Pkg.Info != nil {
		if tv, ok := pass.Pkg.Info.Types[call]; ok && tv.Type != nil {
			if b, isBasic := tv.Type.(*types.Basic); !isBasic || b.Kind() != types.Invalid {
				switch t := tv.Type.(type) {
				case *types.Tuple:
					out := make([]string, t.Len())
					for i := 0; i < t.Len(); i++ {
						out[i] = kindOfType(t.At(i).Type())
					}
					return out
				default:
					return []string{kindOfType(t)}
				}
			}
		}
	}
	// Syntactic fallback through the call graph.
	if pass.Prog != nil {
		if callee := pass.Prog.CalleeOf(call); callee != nil {
			return declaredKinds(callee.Decl)
		}
	}
	return nil
}

// kindOfType classifies one result type.
func kindOfType(t types.Type) string {
	if t == nil {
		return ""
	}
	if types.Identical(t, types.Universe.Lookup("error").Type()) {
		return "error"
	}
	if named, ok := t.(*types.Named); ok && named.Obj() != nil && named.Obj().Name() == "CQE" {
		return "completion status (CQE)"
	}
	return ""
}

// declaredKinds classifies results from the callee's declared signature.
func declaredKinds(fn *ast.FuncDecl) []string {
	if fn.Type.Results == nil {
		return nil
	}
	var out []string
	for _, field := range fn.Type.Results.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		kind := ""
		switch t := field.Type.(type) {
		case *ast.Ident:
			if t.Name == "error" {
				kind = "error"
			} else if t.Name == "CQE" {
				kind = "completion status (CQE)"
			}
		case *ast.SelectorExpr:
			if t.Sel.Name == "CQE" {
				kind = "completion status (CQE)"
			}
		}
		for i := 0; i < n; i++ {
			out = append(out, kind)
		}
	}
	return out
}

// isBlank matches the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// calleeText renders the called expression for the diagnostic.
func calleeText(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	default:
		return "the call"
	}
}
