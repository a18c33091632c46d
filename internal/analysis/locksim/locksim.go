// Package locksim forbids OS-level blocking inside simulation code.
//
// The sim kernel is cooperative: exactly one process is runnable at any
// instant of virtual time. A process is a coroutine of its lane's driver,
// which switches into it directly and gets control back only when the
// process parks or returns. Code running *on top* of the scheduler must
// block only through the kernel's primitives (sim.Queue, sim.Resource,
// Proc.Sleep) — a sync.Mutex that is ever contended, a WaitGroup.Wait, a
// bare channel operation, or a raw `go` statement blocks or escapes the one
// runnable process and deadlocks (or derandomizes) the whole simulation.
//
// internal/sim itself is allowlisted: the window barrier of the sharded
// kernel is the one place where real goroutines and real blocking are the
// mechanism rather than a bug. Anywhere else, a deliberate exception needs
// //rfpvet:allow locksim <reason>.
package locksim

import (
	"go/ast"
	"go/token"
	"strings"

	"rfp/internal/analysis"
)

// simPrefix scopes the invariant to the simulator tree; host programs
// (cmd/, examples/) may use real concurrency.
const simPrefix = "rfp/internal/"

// allowed packages: the scheduler kernel itself, the host-time trace
// recorder, the telemetry recorder (its mutex guards the decision log
// against concurrent Snapshot readers, never a sim process against another),
// and the analysis tooling.
var allowed = []string{
	"rfp/internal/sim",
	"rfp/internal/trace",
	"rfp/internal/telemetry",
	"rfp/internal/analysis",
}

// forbiddenSync are the sync primitives that park the OS thread.
// sync.Once and sync/atomic are not blocking and stay legal.
var forbiddenSync = map[string]bool{
	"Mutex":     true,
	"RWMutex":   true,
	"WaitGroup": true,
	"Cond":      true,
	"NewCond":   true,
	"Locker":    true,
}

// Analyzer implements the locksim check.
var Analyzer = &analysis.Analyzer{
	Name: "locksim",
	Doc: "flag sync.Mutex/sync.WaitGroup, bare channel operations, select, and raw go statements in " +
		"simulation packages: the cooperative scheduler runs one process at a time, so OS-level blocking deadlocks it",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !strings.HasPrefix(pass.PkgPath, simPrefix) {
		return nil
	}
	for _, a := range allowed {
		if pass.PkgPath == a || strings.HasPrefix(pass.PkgPath, a+"/") {
			return nil
		}
	}
	const hint = "use the sim kernel's primitives (sim.Queue, sim.Resource, Proc.Sleep, Env.Go)"
	for _, f := range pass.Files {
		syncName := analysis.ImportName(f, "sync")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && analysis.IsPkgRef(x, syncName) && forbiddenSync[n.Sel.Name] {
					pass.Reportf(n.Pos(), "sync.%s blocks the OS thread inside simulation package %s; %s",
						n.Sel.Name, pass.PkgPath, hint)
				}
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "channel send blocks the one runnable simulation process; %s", hint)
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "channel receive blocks the one runnable simulation process; %s", hint)
				}
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select blocks the one runnable simulation process; %s", hint)
			case *ast.RangeStmt:
				// `for range ch` is also a receive, but without type
				// information the element type is unknown; the bare
				// receive inside such loops is caught when written
				// explicitly. Left unflagged to avoid false positives
				// on slice/map ranges.
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "raw go statement escapes the cooperative scheduler and derandomizes the run; spawn processes with Env.Go")
			}
			return true
		})
	}
	return nil
}
