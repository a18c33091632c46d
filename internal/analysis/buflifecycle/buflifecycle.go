// Package buflifecycle pairs MallocBuf with FreeBuf.
//
// RFP buffers live inside a registered RDMA region (internal/core's
// BufAllocator); a buffer that is malloc'd and never freed permanently
// shrinks the region, and under the paper's steady-state client loops that
// is a guaranteed slow leak rather than a crash — exactly the kind of bug a
// simulation run won't surface. The check is intraprocedural and
// deliberately simple: a function that calls MallocBuf must either call
// FreeBuf somewhere (including via defer) or visibly hand the buffer off —
// through a return statement, or by posting it on a connection's request
// ring (Post/PostBatch stage or pin the buffer until the completion is
// polled, so the poller owns the release). A buffer appended into a batch
// that is then returned or posted — including element-by-element by
// ranging over it, the idiom of keep-ring-full drain loops — counts as the
// same transfer. Any other ownership transfer —
// storing the buffer in a long-lived struct, sending it through a queue —
// is a design decision that must be documented with
//
//	//rfpvet:allow buflifecycle <reason>
//
// on the MallocBuf line.
//
// Two interprocedural summaries, derived to a fixpoint over the load-set
// call graph (analysis.Program), extend the per-function rules across
// helper boundaries:
//
//   - resolves-param: a helper that frees or posts one of its parameters
//     (directly or through further helpers) resolves the buffer handed to
//     it, so release(a, buf) counts like a.FreeBuf(buf);
//   - returns-fresh: a helper that returns a MallocBuf-derived buffer makes
//     its caller the owner — a `buf := newBuf()` binding is held to the
//     same free/return/post rule as a direct MallocBuf call.
//
// Slab and endpoint leases (internal/rnic's SlabRegistrar.Lease and
// EndpointPool.Lease, DESIGN.md §13) follow the same pairing with two
// lease-specific twists: the releasing call is a method on the lease itself
// (lease.Release(), so the receiver — not an argument — is what gets
// resolved), and the *designed* owner of a lease is a long-lived struct
// (Conn.lease, Client.local, Client.lease) that Close/retire later
// releases. Storing a lease into a struct field is therefore a visible,
// recognized ownership transfer for Lease results — the field name is the
// documentation — while MallocBuf keeps the stricter return/post/free rule.
// A Lease result that is dropped on an error path without Release, or bound
// to a local that never escapes, is still flagged.
package buflifecycle

import (
	"go/ast"

	"rfp/internal/analysis"
)

// Analyzer implements the buflifecycle check.
var Analyzer = &analysis.Analyzer{
	Name: "buflifecycle",
	Doc: "flag functions where a MallocBuf result can reach return without a FreeBuf " +
		"or a documented ownership transfer (return of the buffer, or an //rfpvet:allow directive)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	sum := summarize(pass.Prog)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, sum, fn)
		}
	}
	return nil
}

// summary holds buflifecycle's interprocedural facts.
type summary struct {
	resolves map[*analysis.FuncInfo]map[int]bool // this parameter is freed or posted
	fresh    map[*analysis.FuncInfo]bool         // returns a MallocBuf-derived buffer the caller owns
}

// summarize derives the summaries to a fixpoint over the program.
func summarize(prog *analysis.Program) *summary {
	s := &summary{
		resolves: map[*analysis.FuncInfo]map[int]bool{},
		fresh:    map[*analysis.FuncInfo]bool{},
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

// update recomputes fi's summary entries, returning whether anything grew.
func (s *summary) update(fi *analysis.FuncInfo) bool {
	params := map[string]int{}
	for i, name := range fi.ParamNames() {
		if name != "" && name != "_" {
			params[name] = i
		}
	}
	changed := false
	markResolve := func(idx int) {
		if !s.resolves[fi][idx] {
			if s.resolves[fi] == nil {
				s.resolves[fi] = map[int]bool{}
			}
			s.resolves[fi][idx] = true
			changed = true
		}
	}

	// owned tracks locals bound to MallocBuf or to a returns-fresh helper:
	// returning one makes this function returns-fresh too.
	owned := map[string]bool{}
	fresh := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// Direct frees/posts of a parameter.
			switch calleeName(n) {
			case "FreeBuf", "Post", "PostBatch":
				for _, arg := range n.Args {
					if id := rootIdent(arg); id != nil {
						if idx, ok := params[id.Name]; ok {
							markResolve(idx)
						}
					}
				}
			}
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok && freshCall(s, fi, call) {
					if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
						if !owned[id.Name] {
							owned[id.Name] = true
						}
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				switch res := res.(type) {
				case *ast.Ident:
					if owned[res.Name] {
						fresh = true
					}
				case *ast.CallExpr:
					if freshCall(s, fi, res) {
						fresh = true
					}
				}
			}
		}
		return true
	})
	if fresh && !s.fresh[fi] {
		s.fresh[fi] = true
		changed = true
	}

	// Transitive resolution: handing a parameter to a helper that frees or
	// posts the receiving parameter.
	for _, cs := range fi.Calls {
		for i, arg := range cs.Call.Args {
			id := rootIdent(arg)
			if id == nil {
				continue
			}
			idx, ok := params[id.Name]
			if !ok {
				continue
			}
			if s.resolves[cs.Callee][cs.ParamOf(i)] {
				markResolve(idx)
			}
		}
	}
	return changed
}

// freshCall reports whether call acquires a fresh buffer: MallocBuf itself,
// or a resolved helper whose summary says it returns one.
func freshCall(s *summary, fi *analysis.FuncInfo, call *ast.CallExpr) bool {
	if calleeName(call) == "MallocBuf" {
		return true
	}
	for _, cs := range fi.Calls {
		if cs.Call == call {
			return s.fresh[cs.Callee]
		}
	}
	return false
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

// calleeName returns the bare name of a call's callee: "F" for F(...) and
// for recv.F(...).
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func checkFunc(pass *analysis.Pass, sum *summary, fn *ast.FuncDecl) {
	var mallocs []*ast.CallExpr
	var leases []*ast.CallExpr     // Lease results owned by this function
	var freshCalls []*ast.CallExpr // calls to returns-fresh helpers: caller owns the result
	hasFree := false
	returned := make(map[string]bool)        // identifiers appearing in return statements
	posted := make(map[string]bool)          // identifiers handed to Post/PostBatch
	released := make(map[string]bool)        // lease receivers of a .Release() call
	fieldStored := make(map[string]bool)     // identifiers assigned into a struct field
	fieldCalls := make(map[ast.Expr]bool)    // Lease calls assigned straight into a field
	returnedCalls := make(map[ast.Expr]bool) // Lease calls returned directly
	rangeOver := make(map[string]string)     // range variable -> ranged collection
	appendInto := make(map[string]string)    // appended element -> collection
	returnsCall := false                     // a MallocBuf call returned directly

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch calleeName(n) {
			case "MallocBuf":
				mallocs = append(mallocs, n)
			case "Lease":
				leases = append(leases, n)
			case "Release":
				// lease.Release() resolves its receiver, the lease itself.
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					if id := rootIdent(sel.X); id != nil {
						released[id.Name] = true
					}
				}
			case "FreeBuf":
				hasFree = true
			case "Post", "PostBatch":
				// Posting transfers ownership to the ring: the buffer must
				// stay live until Poll resolves the handle, and whoever
				// polls releases it.
				for _, arg := range n.Args {
					ast.Inspect(arg, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							posted[id.Name] = true
						}
						return true
					})
				}
			}
			if pass.Prog != nil {
				if cs := pass.Prog.SiteOf(n); cs != nil {
					// A helper that frees or posts the receiving parameter
					// resolves the argument, like a direct FreeBuf/Post.
					for i, arg := range n.Args {
						if id := rootIdent(arg); id != nil && sum.resolves[cs.Callee][cs.ParamOf(i)] {
							posted[id.Name] = true
						}
					}
					// A returns-fresh helper hands this function a buffer it
					// now owns.
					if sum.fresh[cs.Callee] && calleeName(n) != "MallocBuf" {
						freshCalls = append(freshCalls, n)
					}
				}
			}
		case *ast.AssignStmt:
			// Storing into a struct field is the designed ownership transfer
			// for leases (Conn.lease, Client.lease, ...): the long-lived
			// struct's teardown releases them.
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if _, isField := lhs.(*ast.SelectorExpr); !isField {
						continue
					}
					switch rhs := n.Rhs[i].(type) {
					case *ast.Ident:
						fieldStored[rhs.Name] = true
					case *ast.CallExpr:
						fieldCalls[rhs] = true
					}
				}
			}
			// `bufs = append(bufs, buf)` moves buf's ownership into bufs:
			// whatever resolves the collection resolves the element.
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if into, ok := n.Lhs[0].(*ast.Ident); ok {
					if call, isCall := n.Rhs[0].(*ast.CallExpr); isCall {
						if id, isIdent := call.Fun.(*ast.Ident); isIdent && id.Name == "append" {
							for _, arg := range call.Args[1:] {
								if el, isEl := arg.(*ast.Ident); isEl {
									appendInto[el.Name] = into.Name
								}
							}
						}
					}
				}
			}
		case *ast.RangeStmt:
			// `for _, b := range bufs { Post(p, b) }` posts every element:
			// the loop drains the collection slot by slot, so a posted
			// range variable transfers the whole collection.
			v, isIdent := n.Value.(*ast.Ident)
			over, overIdent := n.X.(*ast.Ident)
			if isIdent && overIdent && v.Name != "_" {
				rangeOver[v.Name] = over.Name
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				ast.Inspect(res, func(m ast.Node) bool {
					switch m := m.(type) {
					case *ast.Ident:
						returned[m.Name] = true
					case *ast.CallExpr:
						switch calleeName(m) {
						case "MallocBuf":
							returnsCall = true
						case "Lease":
							returnedCalls[m] = true
						}
						if pass.Prog != nil {
							if cs := pass.Prog.SiteOf(m); cs != nil && sum.fresh[cs.Callee] {
								returnsCall = true // fresh buffer handed straight through
							}
						}
					}
					return true
				})
			}
		case *ast.FuncLit:
			// Nested closures get their own accounting only for
			// malloc/free pairing via the shared flags; keep it
			// simple and treat the whole body as one scope.
		}
		return true
	})

	// Posting a range variable posts the collection it ranges over.
	for v, over := range rangeOver {
		if posted[v] {
			posted[over] = true
		}
	}

	// resolved reports a recognized ownership transfer for name: returned
	// or posted directly, or appended into a collection that is.
	resolved := func(name string) bool {
		for hops := 0; name != "" && hops < 8; hops++ {
			if returned[name] || posted[name] {
				return true
			}
			name = appendInto[name]
		}
		return false
	}

	// Lease pairing: every Lease result must be released, returned, or
	// stored into the struct that owns it from then on.
	for _, call := range leases {
		if fieldCalls[call] || returnedCalls[call] {
			continue
		}
		name := assignedVar(pass, fn.Body, call)
		if name != "" && (resolved(name) || released[name] || fieldStored[name]) {
			continue
		}
		pass.Reportf(call.Pos(), "Lease result in %s is neither released (Release) nor handed to an owning struct; release it, return it, or document the ownership transfer with %s buflifecycle <reason>",
			fn.Name.Name, analysis.AllowDirective)
	}

	if len(mallocs)+len(freshCalls) == 0 || hasFree || returnsCall {
		return
	}

	// Map each malloc to the variable it initializes, if any, so a
	// `return buf` or `Post(p, buf)` ownership transfer can be recognized.
	for _, call := range mallocs {
		if name := assignedVar(pass, fn.Body, call); name != "" && resolved(name) {
			continue
		}
		pass.Reportf(call.Pos(), "MallocBuf result in %s is neither freed (FreeBuf) nor returned to the caller; free it, return it, or document the ownership transfer with %s buflifecycle <reason>",
			fn.Name.Name, analysis.AllowDirective)
	}
	// A returns-fresh helper's result is owned here exactly like a direct
	// MallocBuf. A discarded result is left to errdrop-style review; only
	// bound, unresolved buffers are leaks this check can prove.
	for _, call := range freshCalls {
		name := assignedVar(pass, fn.Body, call)
		if name == "" || resolved(name) {
			continue
		}
		pass.Reportf(call.Pos(), "buffer returned by %s in %s is neither freed (FreeBuf) nor handed on; free it, return it, or document the ownership transfer with %s buflifecycle <reason>",
			calleeName(call), fn.Name.Name, analysis.AllowDirective)
	}
}

// assignedVar returns the name of the variable that directly receives the
// result of call (`buf, err := a.MallocBuf(n)` yields "buf"), or "".
func assignedVar(pass *analysis.Pass, body *ast.BlockStmt, call *ast.CallExpr) string {
	name := ""
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 || assign.Rhs[0] != ast.Expr(call) {
			return true
		}
		if id, ok := assign.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			name = id.Name
		}
		return false
	})
	return name
}
