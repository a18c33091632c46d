// Package statusbit forbids reading response payloads before the status
// header is checked.
//
// The RFP protocol's central race (paper §3.2): a client that fetches a
// response with RDMA Read may observe a buffer whose payload is stale or
// half-written; only the status bit + size header (and, in the real system,
// a CRC — cf. Pilaf's self-verifying structures) make the read safe. All
// header validation lives in internal/core (parseHeader) and
// internal/kvstore/kv (DecodeResponse and friends). Outside those wire
// helpers, code must not index or slice a response buffer in read position:
// every payload access has to flow through a decode helper that checked the
// header first.
//
// The check is name-based (identifiers matching resp*/reply*) and
// position-aware: writes into a response buffer (handler-side assignment,
// copy destination, binary.*.Put* destination) are fine, as is slicing a
// buffer directly into one of the sanctioned decode helpers. Locals that
// receive a response buffer through assignment, append, or copy — the
// reallocated slot arrays of a runtime ring resize being the motivating
// case — are tracked as aliases and held to the same rule.
//
// On top of the per-function rules, the analyzer derives two summaries
// from the load-set call graph (analysis.Program), iterated to a fixpoint:
//
//   - returns-param: a helper that returns one of its parameters (or a
//     slice/element of one) launders the bytes through its result, so a
//     local bound to helper(resp) is a response alias like any other;
//   - raw-reads-param: a helper that indexes or slices a parameter in read
//     position — under whatever innocent name — performs the raw read its
//     caller smuggled past the name check, so passing a response buffer to
//     it is flagged at the call site.
//
// Decode helpers, the exempt wire packages, and reads covered by an
// //rfpvet:allow (a documented contract) do not propagate through either
// summary.
package statusbit

import (
	"go/ast"
	"strings"

	"rfp/internal/analysis"
)

// exempt packages hold the wire helpers that are allowed to touch raw
// headers and payloads.
var exempt = []string{
	"rfp/internal/core",
	"rfp/internal/kvstore/kv",
}

// decoders are the sanctioned helpers; a response buffer may be sliced
// directly into any of them because they validate status+size before
// exposing the payload.
var decoders = map[string]bool{
	"DecodeResponse": true,
	"DecodeRequest":  true,
}

// Analyzer implements the statusbit check.
var Analyzer = &analysis.Analyzer{
	Name: "statusbit",
	Doc: "flag raw reads (indexing/slicing) of response buffers outside the internal/core and " +
		"internal/kvstore/kv wire helpers, which validate the status+size header before exposing payload bytes",
	Run: run,
}

// respName reports whether an identifier plausibly names a response buffer.
func respName(name string) bool {
	lower := strings.ToLower(name)
	return strings.HasPrefix(lower, "resp") || strings.HasPrefix(lower, "reply")
}

// bufName extracts the response-ish name from an index/slice operand:
// a bare identifier (resp), a field selector (c.respBuf), or a slot-ring
// accessor (respSlots[i], c.respBufs[slot]) — indexing into a collection
// of response buffers yields a response buffer, so reads of the element
// are held to the same rule.
func bufName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		if respName(x.Name) {
			return x.Name
		}
	case *ast.SelectorExpr:
		if respName(x.Sel.Name) {
			return x.Sel.Name
		}
	case *ast.IndexExpr:
		return bufName(x.X)
	}
	return ""
}

// rootIdent unwraps index/slice chains to the base identifier, if any.
func rootIdent(x ast.Expr) *ast.Ident {
	for {
		switch v := x.(type) {
		case *ast.Ident:
			return v
		case *ast.IndexExpr:
			x = v.X
		case *ast.SliceExpr:
			x = v.X
		default:
			return nil
		}
	}
}

// respAliases finds local variables that alias a response buffer (or a
// collection of them) without carrying a resp*/reply* name. The resizable
// request ring made this pattern real: a runtime depth change reallocates
// the slot arrays (`resized := make([][]byte, d); copy(resized, respBufs)`)
// and the copy's destination holds the same unvalidated payload bytes the
// originals did. Tracked transfers, iterated to a fixpoint so alias chains
// resolve: plain assignment from a response expression, append of one,
// copy into a non-resp destination, and — through the returns-param
// summary — binding the result of a helper that returns the buffer it was
// handed.
func respAliases(pass *analysis.Pass, sum *summary, body ast.Node) map[string]bool {
	aliases := map[string]bool{}
	isResp := func(x ast.Expr) bool {
		if bufName(x) != "" {
			return true
		}
		id := rootIdent(x)
		return id != nil && aliases[id.Name]
	}
	mark := func(x ast.Expr) bool {
		if id, ok := x.(*ast.Ident); ok && id.Name != "_" && !aliases[id.Name] && !respName(id.Name) {
			aliases[id.Name] = true
			return true
		}
		return false
	}
	// carriesThroughCall reports whether a call's result aliases a response
	// argument: the resolved callee returns the parameter the buffer lands in.
	carriesThroughCall := func(call *ast.CallExpr) bool {
		if pass.Prog == nil {
			return false
		}
		cs := pass.Prog.SiteOf(call)
		if cs == nil {
			return false
		}
		for i, arg := range call.Args {
			if isResp(arg) && sum.returnsParam[cs.Callee][cs.ParamOf(i)] {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, rhs := range n.Rhs {
					carries := isResp(rhs)
					if call, ok := rhs.(*ast.CallExpr); ok && !carries {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
							for _, arg := range call.Args {
								if isResp(arg) {
									carries = true
									break
								}
							}
						}
						if !carries {
							carries = carriesThroughCall(call)
						}
					}
					if carries && mark(n.Lhs[i]) {
						changed = true
					}
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "copy" && len(n.Args) == 2 && isResp(n.Args[1]) {
					if root := rootIdent(n.Args[0]); root != nil && mark(root) {
						changed = true
					}
				}
			}
			return true
		})
	}
	return aliases
}

// summary holds the interprocedural facts statusbit derives once per run
// from the load-set call graph; both maps are keyed by callee and then by
// parameter index.
type summary struct {
	returnsParam map[*analysis.FuncInfo]map[int]bool // result aliases this parameter
	rawReads     map[*analysis.FuncInfo]map[int]bool // this parameter is indexed/sliced in read position
}

// summarize iterates the program's functions to a fixpoint. Functions in
// exempt packages and the sanctioned decoders contribute nothing: they are
// allowed to touch raw bytes, so neither aliasing through them nor reads
// inside them taint callers.
func summarize(prog *analysis.Program) *summary {
	s := &summary{
		returnsParam: map[*analysis.FuncInfo]map[int]bool{},
		rawReads:     map[*analysis.FuncInfo]map[int]bool{},
	}
	if prog == nil {
		return s
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range prog.Funcs() {
			if s.update(fi) {
				changed = true
			}
		}
	}
	return s
}

// sanctioned reports whether fi may handle raw response bytes by design.
func sanctioned(fi *analysis.FuncInfo) bool {
	for _, ex := range exempt {
		if fi.Pkg.Path == ex {
			return true
		}
	}
	return decoders[fi.Name()]
}

// update recomputes fi's summary entries, returning whether anything grew.
func (s *summary) update(fi *analysis.FuncInfo) bool {
	if sanctioned(fi) {
		return false
	}
	params := paramIndex(fi)
	if len(params) == 0 {
		return false
	}
	changed := false
	markRead := func(idx int) {
		if !s.rawReads[fi][idx] {
			if s.rawReads[fi] == nil {
				s.rawReads[fi] = map[int]bool{}
			}
			s.rawReads[fi][idx] = true
			changed = true
		}
	}
	markReturn := func(idx int) {
		if !s.returnsParam[fi][idx] {
			if s.returnsParam[fi] == nil {
				s.returnsParam[fi] = map[int]bool{}
			}
			s.returnsParam[fi][idx] = true
			changed = true
		}
	}
	paramOf := func(x ast.Expr) (int, bool) {
		id := rootIdent(x)
		if id == nil {
			return 0, false
		}
		idx, ok := params[id.Name]
		return idx, ok
	}

	parents := analysis.Parents(fi.Decl.Body)
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr, *ast.SliceExpr:
			// A direct raw read of a parameter, whatever it is named.
			expr := n.(ast.Expr)
			idx, ok := paramOf(expr)
			if !ok {
				return true
			}
			// Nested slot selections defer to the enclosing expression,
			// exactly as in the per-function walk.
			switch p := parents[n].(type) {
			case *ast.IndexExpr:
				if p.X == n {
					return true
				}
			case *ast.SliceExpr:
				if p.X == n {
					return true
				}
			}
			if isWriteOrChecked(expr, parents) {
				return true
			}
			if analysis.HasAllow(fi.Pkg.Fset, fi.File, "statusbit", n.Pos()) {
				return true // documented contract: does not taint callers
			}
			markRead(idx)
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if idx, ok := paramOf(res); ok {
					markReturn(idx)
				}
			}
		}
		return true
	})

	// Transitive steps through resolved calls: passing a parameter into a
	// raw-reading position reads it; returning a returns-param call of a
	// parameter returns it.
	for _, cs := range fi.Calls {
		if sanctioned(cs.Callee) {
			continue
		}
		if analysis.HasAllow(fi.Pkg.Fset, fi.File, "statusbit", cs.Call.Pos()) {
			continue
		}
		inReturn := false
		for p := ast.Node(cs.Call); p != nil; p = parents[p] {
			if _, ok := p.(*ast.ReturnStmt); ok {
				inReturn = true
				break
			}
		}
		for i, arg := range cs.Call.Args {
			idx, ok := paramOf(arg)
			if !ok {
				continue
			}
			pidx := cs.ParamOf(i)
			if s.rawReads[cs.Callee][pidx] {
				markRead(idx)
			}
			if inReturn && s.returnsParam[cs.Callee][pidx] {
				markReturn(idx)
			}
		}
	}
	return changed
}

// paramIndex maps fi's named parameters to their indices.
func paramIndex(fi *analysis.FuncInfo) map[string]int {
	params := map[string]int{}
	for i, name := range fi.ParamNames() {
		if name != "" && name != "_" {
			params[name] = i
		}
	}
	return params
}

func run(pass *analysis.Pass) error {
	for _, ex := range exempt {
		if pass.PkgPath == ex {
			return nil
		}
	}
	sum := summarize(pass.Prog)
	for _, f := range pass.Files {
		parents := analysis.Parents(f)
		// Alias sets are per-function: a local that copies a response
		// buffer is only response-carrying within its own body.
		aliases := map[string]bool{}
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			if fn, ok := n.(*ast.FuncDecl); ok {
				if fn.Body == nil {
					return false
				}
				aliases = respAliases(pass, sum, fn.Body)
				ast.Inspect(fn.Body, walk)
				aliases = map[string]bool{}
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				checkCallSite(pass, sum, call, aliases)
				return true
			}
			var operand ast.Expr
			switch n := n.(type) {
			case *ast.IndexExpr:
				operand = n.X
			case *ast.SliceExpr:
				operand = n.X
			default:
				return true
			}
			name := bufName(operand)
			if name == "" {
				if id := rootIdent(operand); id != nil && aliases[id.Name] {
					name = id.Name
				}
			}
			if name == "" {
				return true
			}
			// A slot selection nested inside another index/slice
			// (respSlots[i] within respSlots[i][8]) is not itself a payload
			// read; the enclosing expression carries the report.
			switch p := parents[n].(type) {
			case *ast.IndexExpr:
				if p.X == n {
					return true
				}
			case *ast.SliceExpr:
				if p.X == n {
					return true
				}
			}
			if isWriteOrChecked(n.(ast.Expr), parents) {
				return true
			}
			pass.Reportf(n.Pos(), "raw read of response buffer %s before status check; route payload access through the kv decode helpers (kv.DecodeResponse) or the core wire layer, which validate the status+size header first",
				name)
			return true
		}
		ast.Inspect(f, walk)
	}
	return nil
}

// checkCallSite flags a response buffer handed whole to a helper whose
// summary says it reads the corresponding parameter raw. Slice and index
// arguments (resp[8:]) are already covered by the per-expression walk; this
// catches the bare hand-off (helper(resp)) that the name check alone cannot
// see past.
func checkCallSite(pass *analysis.Pass, sum *summary, call *ast.CallExpr, aliases map[string]bool) {
	if pass.Prog == nil {
		return
	}
	cs := pass.Prog.SiteOf(call)
	if cs == nil || sanctioned(cs.Callee) {
		return
	}
	for i, arg := range call.Args {
		name := bufName(arg)
		if name == "" {
			if id := rootIdent(arg); id != nil && aliases[id.Name] {
				name = id.Name
			}
		}
		if name == "" {
			continue
		}
		switch arg.(type) {
		case *ast.IndexExpr, *ast.SliceExpr:
			continue // index/slice arguments are the per-expression walk's job
		}
		if sum.rawReads[cs.Callee][cs.ParamOf(i)] {
			pass.Reportf(arg.Pos(), "response buffer %s passed to %s, which reads payload bytes before a status check; validate the header first or route payload access through the kv decode helpers",
				name, cs.Callee.Name())
		}
	}
}

// isWriteOrChecked reports whether the index/slice expression expr appears
// in a position that does not read unvalidated payload bytes:
//
//   - left-hand side of an assignment (handler writing a response),
//   - destination argument of copy(dst, ...) or binary.*.Put*(dst, ...),
//   - argument of a sanctioned decode helper, which checks the header.
func isWriteOrChecked(expr ast.Expr, parents map[ast.Node]ast.Node) bool {
	parent := parents[expr]
	switch p := parent.(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == expr {
				return true
			}
		}
	case *ast.CallExpr:
		if p.Fun == expr {
			return false
		}
		switch fun := p.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "copy" && len(p.Args) > 0 && p.Args[0] == expr {
				return true
			}
		case *ast.SelectorExpr:
			if decoders[fun.Sel.Name] {
				return true
			}
			if strings.HasPrefix(fun.Sel.Name, "Put") && len(p.Args) > 0 && p.Args[0] == expr {
				return true
			}
		}
		if fun, ok := p.Fun.(*ast.Ident); ok && decoders[fun.Name] {
			return true
		}
	}
	return false
}
