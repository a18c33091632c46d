// Package quiesce enforces the paper's quiesce rule on ring geometry.
//
// RFP's fast path reads ring geometry — the slot arrays, the registered
// memory region, the QP, the WR-ID tag — without synchronization: the
// client posts into slot offsets it computed from fields the server's layout
// must agree with. That is only sound because geometry never changes while a
// request is in flight. DESIGN.md states the rule as: a reconnect, the one
// geometry mutation, may happen only at a quiesce point, outstanding == 0.
// The ring depth is not geometry: it bounds only the posts after it.
//
// This analyzer finds every assignment to a geometry field (slots, stages,
// fetches, qp, server, local, region, client, maxDepth, respStride and the
// leased fields) reached through the receiver or a pointer parameter,
// inside packages under rfp/internal/core, and demands the mutating
// function be quiesce-safe. A function is safe when
//
//   - its body tests outstanding against a bound (the guard dominating the
//     mutation is not tracked — containing the check is the contract), or
//   - it carries //rfp:quiesced <reason>, an auditable assertion that every
//     caller guarantees the rule (reconnect's recovery path does this: the
//     sync-mode recovery drains in-flight state before reconnecting), or
//   - every resolved caller in the program is itself safe, to a fixpoint
//     (a helper that never checks outstanding, called only from functions
//     that do).
//
// Mutations through locals (constructors building a fresh ring before
// publishing it) are exempt: only state reached through the receiver or a
// pointer parameter is shared. Diagnostics note when the mutating function
// is reachable from the Serve/Poll data path, where an unguarded mutation
// races with in-flight slots.
package quiesce

import (
	"go/ast"
	"go/token"
	"strings"

	"rfp/internal/analysis"
)

// pkgPrefix scopes the invariant to the core ring implementation.
const pkgPrefix = "rfp/internal/core"

// geomFields are the ring-geometry fields the quiesce rule covers. cq is
// deliberately absent: the completion queue is lazily created on first Post
// and is client-private, not layout the server must agree with.
var geomFields = map[string]bool{
	"slots": true, "stages": true, "fetches": true, "qp": true,
	"server": true, "local": true, "region": true, "client": true,
	"maxDepth": true, "respStride": true,
	// Leased geometry (DESIGN.md §13): the slab lease behind the ring region
	// (and its cached byte view), the reply landing, the endpoint lease
	// (Conn.lease and Client.lease share the name), and the WR-ID demux tag.
	// Swapping any of these while posts are in flight would strand or
	// misroute completions.
	"lease": true, "buf": true, "landing": true, "tag": true,
}

// dataPathRoots are the entry points whose call trees form the Serve/Poll
// data path.
var dataPathRoots = map[string]bool{"Serve": true, "Poll": true, "TryRecv": true, "progress": true}

// Analyzer implements the quiesce check.
var Analyzer = &analysis.Analyzer{
	Name: "quiesce",
	Doc: "ring geometry (slot arrays, MR, QP, WR-ID tag) may only be mutated at a quiesce point: " +
		"the mutating function must check outstanding, be //rfp:quiesced, or be called only from safe functions",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !strings.HasPrefix(pass.PkgPath, pkgPrefix) || pass.Prog == nil {
		return nil
	}
	safe := safeSet(pass.Prog)
	onDataPath := pass.Prog.Reachable(func(f *analysis.FuncInfo) bool {
		return dataPathRoots[f.Name()]
	})
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			fi := pass.Prog.FuncOf(fn)
			if fi != nil && safe[fi] {
				continue
			}
			ctx := ""
			if fi != nil && onDataPath[fi] {
				ctx = " (reachable from the Serve/Poll data path)"
			}
			for _, mut := range mutations(fn) {
				pass.Reportf(mut.pos,
					"mutation of ring geometry field %q outside a quiesce-guarded path%s; "+
						"guard on outstanding == 0, reach it only from guarded callers, or annotate //rfp:quiesced <reason>",
					mut.field, ctx)
			}
		}
	}
	return nil
}

// safeSet computes quiesce safety over the whole program to a fixpoint.
func safeSet(prog *analysis.Program) map[*analysis.FuncInfo]bool {
	safe := make(map[*analysis.FuncInfo]bool)
	for _, f := range prog.Funcs() {
		if checksOutstanding(f.Decl.Body) || analysis.FuncHasDirective(f.Decl, "quiesced") {
			safe[f] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range prog.Funcs() {
			if safe[f] || len(f.Callers) == 0 {
				continue
			}
			all := true
			for _, c := range f.Callers {
				if !safe[c] {
					all = false
					break
				}
			}
			if all {
				safe[f] = true
				changed = true
			}
		}
	}
	return safe
}

// checksOutstanding reports whether the body compares an identifier or
// field named "outstanding" — the syntactic shape of the quiesce guard.
func checksOutstanding(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || found {
			return !found
		}
		switch be.Op {
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
			if namedOutstanding(be.X) || namedOutstanding(be.Y) {
				found = true
			}
		}
		return !found
	})
	return found
}

// namedOutstanding matches `outstanding` and `x.y...outstanding`.
func namedOutstanding(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name == "outstanding"
	case *ast.SelectorExpr:
		return e.Sel.Name == "outstanding"
	}
	return false
}

// mutation is one geometry-field write site.
type mutation struct {
	pos   token.Pos
	field string
}

// mutations collects geometry-field writes through the receiver or a
// pointer parameter of fn.
func mutations(fn *ast.FuncDecl) []mutation {
	shared := sharedRoots(fn)
	if len(shared) == 0 {
		return nil
	}
	var out []mutation
	record := func(lhs ast.Expr) {
		if field, ok := geometryTarget(lhs, shared); ok {
			out = append(out, mutation{lhs.Pos(), field})
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(n.X)
		}
		return true
	})
	return out
}

// sharedRoots collects identifiers that reach shared ring state: the
// receiver (always a pointer for ring types) and pointer parameters.
// Value parameters and locals are function-private.
func sharedRoots(fn *ast.FuncDecl) map[string]bool {
	roots := make(map[string]bool)
	if fn.Recv != nil {
		for _, field := range fn.Recv.List {
			if _, ptr := field.Type.(*ast.StarExpr); !ptr {
				continue
			}
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

// geometryTarget reports whether lhs replaces a geometry field through a
// shared root, returning the field name. Only direct field replacement
// counts: writing an element of c.slots (re-arming one slot record on the
// data path) is a slot-state update, not a geometry change — geometry
// changes swap the slice header, pointer or scalar wholesale (reconnect's
// bind publishes each fresh lease in one assignment).
func geometryTarget(lhs ast.Expr, shared map[string]bool) (string, bool) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok || !geomFields[sel.Sel.Name] {
		return "", false
	}
	x := sel.X
	for {
		switch e := ast.Unparen(x).(type) {
		case *ast.SelectorExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.Ident:
			return sel.Sel.Name, shared[e.Name]
		default:
			return "", false
		}
	}
}
