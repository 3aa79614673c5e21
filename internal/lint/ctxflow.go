package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces context threading below request handlers: any
// function reachable (through the call graph, over-approximated
// dispatch included) from an http.HandlerFunc-shaped declaration must
// not mint a fresh root context — context.Background() or
// context.TODO() below a handler detaches the work from the request's
// cancellation, which is exactly how a cancelled client keeps burning
// a snapshot-diff worker. The audited escape is //rws:ctxok on the
// call line (a deliberate detachment, e.g. fire-and-forget audit
// logging that must survive the request).
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "no context.Background()/TODO() in functions reachable from HTTP handlers; thread the request context",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	prog := pass.Prog
	// Whole-program analysis: run once, on the first package's pass.
	if len(prog.Pkgs) == 0 || pass.Pkg != prog.Pkgs[0] {
		return
	}
	g := prog.CallGraph()
	var roots []*types.Func
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok && isHandlerShaped(fn) {
					roots = append(roots, fn)
				}
			}
		}
	}
	if len(roots) == 0 {
		return
	}
	parent := g.Reachable(roots)
	// Deterministic reporting: iterate declarations in source order and
	// check the reachable ones.
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if _, reachable := parent[fn]; !reachable {
					continue
				}
				checkCtxRoots(pass, pkg, fn, fd, parent)
			}
		}
	}
}

// isHandlerShaped reports whether fn has the http.HandlerFunc shape:
// func(http.ResponseWriter, *http.Request), receiver allowed.
func isHandlerShaped(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 2 || sig.Results().Len() != 0 {
		return false
	}
	p0 := namedOrPointee(sig.Params().At(0).Type())
	p1t, okPtr := sig.Params().At(1).Type().(*types.Pointer)
	if p0 == nil || p0.Obj().Pkg() == nil || !okPtr {
		return false
	}
	p1 := namedOrPointee(p1t)
	if p1 == nil || p1.Obj().Pkg() == nil {
		return false
	}
	return p0.Obj().Pkg().Path() == "net/http" && p0.Obj().Name() == "ResponseWriter" &&
		p1.Obj().Pkg().Path() == "net/http" && p1.Obj().Name() == "Request"
}

// checkCtxRoots reports every fresh-root context minted inside one
// handler-reachable function.
func checkCtxRoots(pass *Pass, pkg *Package, fn *types.Func, fd *ast.FuncDecl, parent map[*types.Func]*types.Func) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := funcObj(pkg.Info, call.Fun)
		if callee == nil || pkgPathOf(callee) != "context" {
			return true
		}
		if name := callee.Name(); name != "Background" && name != "TODO" {
			return true
		}
		// Program-level pass: resolve the escape against the file's own
		// package, not the package the pass nominally runs on.
		if _, ok := pkg.directiveAt(pass.Prog.Fset.Position(call.Pos()), "ctxok"); ok {
			return true
		}
		root := RootOf(parent, fn)
		where := fn.Name()
		if root != fn {
			where = fn.Name() + " (reachable from handler " + root.Name() + ")"
		} else {
			where = "handler " + fn.Name()
		}
		pass.Reportf(call.Pos(), "context.%s() in %s: thread the request context instead (or annotate //rws:ctxok)", callee.Name(), where)
		return true
	})
}
