package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// GoroLeak requires every `go` statement to carry a provable
// termination channel: the goroutine observes context cancellation
// (calls ctx.Done/ctx.Err or passes a context on), signals a
// sync.WaitGroup (the collector proves the other side waits), or has a
// structurally bounded body (no infinite for, no range over a channel,
// no empty select). Anything else is the leak class the serve plane
// cannot afford at millions of users — one leaked goroutine per
// snapshot swap is an unbounded memory curve — and must either gain a
// termination path or be annotated //rws:leakok with a reason.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "every goroutine has a provable termination path (context, WaitGroup, or bounded body) or a reasoned //rws:leakok",
	Run:  runGoroLeak,
}

func runGoroLeak(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, g)
			return true
		})
	}
}

func checkGoStmt(pass *Pass, g *ast.GoStmt) {
	if reason, ok := pass.Pkg.directiveAt(pass.Prog.Fset.Position(g.Pos()), "leakok"); ok {
		if strings.TrimSpace(reason) == "" {
			pass.Reportf(g.Pos(), "//rws:leakok needs a reason: say why this goroutine cannot leak")
		}
		return
	}
	info := pass.Pkg.Info
	// A context or WaitGroup handed to the spawned call is evidence the
	// callee manages termination.
	for _, arg := range g.Call.Args {
		if t := info.TypeOf(arg); isContextType(t) || isWaitGroupType(t) {
			return
		}
	}
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		if goroutineEvidence(info, fun.Body) {
			return
		}
	default:
		// A declared function or method: accept a context/WaitGroup in
		// its signature (receiver state counts via the argument check
		// above only for explicit args), else scan its body one level
		// deep through the call graph.
		if fn := funcObj(info, g.Call.Fun); fn != nil {
			if sig, ok := fn.Type().(*types.Signature); ok {
				for i := 0; i < sig.Params().Len(); i++ {
					t := sig.Params().At(i).Type()
					if isContextType(t) || isWaitGroupType(t) {
						return
					}
				}
			}
			if body, ok := pass.Prog.CallGraph().Decls[fn]; ok && goroutineEvidence(body.Pkg.Info, body.Decl.Body) {
				return
			}
		}
	}
	pass.Reportf(g.Pos(), "goroutine has no provable termination path: observe a context, signal a WaitGroup, bound the body, or annotate //rws:leakok <reason>")
}

// goroutineEvidence scans a goroutine body (or its one-level callee)
// for a termination channel.
func goroutineEvidence(info *types.Info, body ast.Node) bool {
	if body == nil {
		return false
	}
	evidence := false
	bounded := true
	ast.Inspect(body, func(n ast.Node) bool {
		if evidence {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				recvT := info.TypeOf(sel.X)
				switch sel.Sel.Name {
				case "Done", "Err":
					if isContextType(recvT) {
						evidence = true // selects on / checks cancellation
						return false
					}
					if sel.Sel.Name == "Done" && isWaitGroupType(recvT) {
						evidence = true // signals a collector
						return false
					}
				}
			}
			// Passing a context onward delegates cancellation handling.
			for _, arg := range n.Args {
				if isContextType(info.TypeOf(arg)) {
					evidence = true
					return false
				}
			}
		case *ast.ForStmt:
			if n.Cond == nil {
				bounded = false
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					bounded = false // runs until someone closes the channel
				}
			}
		case *ast.SelectStmt:
			if len(n.Body.List) == 0 {
				bounded = false // select{} blocks forever
			}
		}
		return true
	})
	return evidence || bounded
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n := namedOrPointee(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

// isWaitGroupType reports whether t is (a pointer to) sync.WaitGroup.
func isWaitGroupType(t types.Type) bool {
	n := namedOrPointee(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "WaitGroup"
}
