package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file builds the whole-module may-call graph the interprocedural
// analyzers (lockorder, ctxflow) share. Static dispatch — direct calls
// to declared functions and methods — is resolved exactly through the
// type checker. Dynamic dispatch is over-approximated: an interface
// method call gets an edge to every analyzed method of that name whose
// receiver type implements the interface, and a call through a function
// value gets an edge to every analyzed function with an identical
// signature. Over-approximation errs toward reporting (a lock edge or a
// context violation on a path that cannot happen at runtime), never
// toward silence; a call line annotated //rws:coldpath drops its
// dynamic edges, the audited escape for paths the over-approximation
// gets wrong.

// Edge is one may-call edge out of a declared function.
type Edge struct {
	Callee *types.Func
	// Pos is the first call site producing this edge, for reporting.
	Pos token.Pos
	// Dynamic marks an over-approximated edge (interface dispatch or
	// function-value call) as opposed to an exact static one.
	Dynamic bool
}

// FuncBody ties a declared function to its syntax and owning package.
type FuncBody struct {
	Pkg  *Package
	Decl *ast.FuncDecl
}

// CallGraph is the module-wide may-call relation over every top-level
// function declaration of the analyzed packages.
type CallGraph struct {
	// Decls indexes every analyzed top-level function declaration.
	Decls map[*types.Func]FuncBody
	// Edges maps each declared function to its successors in source
	// order, deduplicated per callee.
	Edges map[*types.Func][]Edge
}

// CallGraph returns the program's call graph, building it on first use.
// Analyzers run sequentially, so the lazy build needs no lock.
func (prog *Program) CallGraph() *CallGraph {
	if prog.cg == nil {
		prog.cg = buildCallGraph(prog)
	}
	return prog.cg
}

func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{
		Decls: make(map[*types.Func]FuncBody),
		Edges: make(map[*types.Func][]Edge),
	}
	// Pass 1: index every declaration, so dynamic matching ranges over
	// the full analyzed set regardless of package order.
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					g.Decls[fn] = FuncBody{Pkg: pkg, Decl: fd}
				}
			}
		}
	}
	// Pass 2: edges. Function-literal bodies are attributed to the
	// enclosing declaration — the literal runs on some path through it
	// (directly, deferred, or as a spawned goroutine).
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
				g.addEdges(prog, pkg, fn, fd.Body)
			}
		}
	}
	return g
}

// addEdges walks one declaration body and records every may-call edge.
func (g *CallGraph) addEdges(prog *Program, pkg *Package, caller *types.Func, body ast.Node) {
	seen := make(map[*types.Func]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callees, dynamic := g.CalleesAt(prog, pkg, call)
		for _, callee := range callees {
			if seen[callee] {
				continue
			}
			seen[callee] = true
			g.Edges[caller] = append(g.Edges[caller], Edge{Callee: callee, Pos: call.Pos(), Dynamic: dynamic})
		}
		return true
	})
}

// CalleesAt resolves one call expression to its possible analyzed
// targets: the exact static callee, or the over-approximated dynamic
// set for interface dispatch and function-value calls. Dynamic
// resolution honors the //rws:coldpath escape on the call line; calls
// to functions outside the analyzed packages resolve to nothing.
func (g *CallGraph) CalleesAt(prog *Program, pkg *Package, call *ast.CallExpr) (callees []*types.Func, dynamic bool) {
	analyzed := func(fns ...*types.Func) []*types.Func {
		var out []*types.Func
		for _, fn := range fns {
			if _, ok := g.Decls[fn]; ok {
				out = append(out, fn)
			}
		}
		return out
	}
	if fn := funcObj(pkg.Info, call.Fun); fn != nil {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
				// Interface dispatch: over-approximate by method-set
				// matching over every analyzed receiver type.
				if _, cold := pkg.directiveAt(prog.Fset.Position(call.Pos()), "coldpath"); cold {
					return nil, true
				}
				return analyzed(g.methodsImplementing(fn.Name(), iface)...), true
			}
		}
		return analyzed(fn), false
	}
	// An immediately-invoked function literal is not dynamic dispatch:
	// the target is the literal itself, whose body is already attributed
	// to the enclosing declaration.
	fun := call.Fun
	for {
		if p, ok := fun.(*ast.ParenExpr); ok {
			fun = p.X
			continue
		}
		break
	}
	if _, ok := fun.(*ast.FuncLit); ok {
		return nil, false
	}
	// No static target: a builtin, a conversion, or a call through a
	// function value. Only the last produces edges.
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || tv.IsType() || tv.IsBuiltin() {
		return nil, false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	_, cold := pkg.directiveAt(prog.Fset.Position(call.Pos()), "coldpath")
	if !ok || cold {
		return nil, true
	}
	return analyzed(g.funcsMatching(sig)...), true
}

// methodsImplementing returns every analyzed method named name whose
// receiver type (or a pointer to it) implements iface.
func (g *CallGraph) methodsImplementing(name string, iface *types.Interface) []*types.Func {
	var out []*types.Func
	for fn := range g.Decls {
		if fn.Name() != name {
			continue
		}
		recv := receiverNamed(fn)
		if recv == nil {
			continue
		}
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			out = append(out, fn)
		}
	}
	return out
}

// funcsMatching returns every analyzed function or method whose
// receiver-stripped signature is identical to sig — the candidates a
// function value of that type may hold (declared funcs assigned or
// passed directly, and method values).
func (g *CallGraph) funcsMatching(sig *types.Signature) []*types.Func {
	want := bareSignature(sig)
	var out []*types.Func
	for fn := range g.Decls {
		fsig, ok := fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		if types.Identical(bareSignature(fsig), want) {
			out = append(out, fn)
		}
	}
	return out
}

// bareSignature strips the receiver so method values compare equal to
// plain functions of the same shape.
func bareSignature(sig *types.Signature) *types.Signature {
	return types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
}

// Reachable walks the graph breadth-first from roots and returns, for
// every function reached, its BFS predecessor — nil for the roots
// themselves — so callers can reconstruct a witness path back to a
// root. Iteration is deterministic: roots in the given order, edges in
// source order.
func (g *CallGraph) Reachable(roots []*types.Func) map[*types.Func]*types.Func {
	parent := make(map[*types.Func]*types.Func)
	var queue []*types.Func
	for _, r := range roots {
		if _, ok := parent[r]; ok {
			continue
		}
		parent[r] = nil
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, e := range g.Edges[fn] {
			if _, ok := parent[e.Callee]; ok {
				continue
			}
			parent[e.Callee] = fn
			queue = append(queue, e.Callee)
		}
	}
	return parent
}

// RootOf follows the predecessor map back to the BFS root of fn.
func RootOf(parent map[*types.Func]*types.Func, fn *types.Func) *types.Func {
	for parent[fn] != nil {
		fn = parent[fn]
	}
	return fn
}
