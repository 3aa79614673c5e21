package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotPath enforces `//rws:hotpath` function annotations: the ~176ns
// 0-alloc request path (Snapshot lookups, the partition/sameset table
// walk, Store.Current, CanonicalHost) must not regress into allocation
// or nondeterminism. A heap escape in the function's own body is the
// allocgate pass's to report (rws-lint -allocgate reads it from the
// compiler); this analyzer bans what the compiler's escape report does
// not show. Inside a hotpath function it bans:
//
//   - calls into sort, math/rand, and reflect (nondeterminism, and
//     work the escape report does not see),
//   - time.Now / time.Since / time.After (wall-clock reads),
//   - taking any mutex (the hot path is lock-free by construction),
//   - ranging over a map (iteration order leaks into output),
//   - append, defer, and go (runtime allocation and per-call cost
//     the escape report does not show),
//   - module-internal calls to functions NOT annotated //rws:hotpath.
//
// A call line annotated //rws:coldpath is an audited exit to the slow
// path (the off-list fallback to the live simulator, error paths) and
// is exempt from the call rules; the structural bans still apply.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "//rws:hotpath functions stay allocation-free, lock-free, and only call other hotpath functions",
	Run:  runHotPath,
}

// hotpathBannedPkgs are packages no hotpath function may call into at all.
var hotpathBannedPkgs = map[string]string{
	"sort":         "has no place in a per-request lookup",
	"math/rand":    "nondeterministic",
	"math/rand/v2": "nondeterministic",
	"reflect":      "reflection on the request path",
}

// hotpathBannedFuncs are individually banned functions from otherwise
// acceptable packages.
var hotpathBannedFuncs = map[string]string{
	"time.Now":   "reads the wall clock per request",
	"time.Since": "reads the wall clock per request",
	"time.After": "allocates a timer per request",
}

func runHotPath(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok || !pass.Prog.Ann.Hotpath[fn] {
				continue
			}
			checkHotBody(pass, fn, fd)
		}
	}
}

func checkHotBody(pass *Pass, fn *types.Func, fd *ast.FuncDecl) {
	modPrefix := modulePrefix(pass.Pkg.Path)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "hotpath function %s uses defer (per-call allocation and latency)", fn.Name())
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "hotpath function %s spawns a goroutine", fn.Name())
		case *ast.RangeStmt:
			if t := pass.Pkg.Info.Types[n.X].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "hotpath function %s ranges over a map (nondeterministic order on the request path)", fn.Name())
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, fn, n, modPrefix)
		}
		return true
	})
}

// checkHotCall applies the call rules to one call site.
func checkHotCall(pass *Pass, fn *types.Func, call *ast.CallExpr, modPrefix string) {
	// Conversions are not calls.
	if tv, ok := pass.Pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	// Builtins: append may grow its slice inside the runtime, which the
	// escape report never shows; a make or new that escapes is
	// allocgate's to report, and everything else (len, cap, copy, panic
	// on the failure path) is fine.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Pkg.Info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" {
				pass.Reportf(call.Pos(), "hotpath function %s calls append (per-request allocation)", fn.Name())
			}
			return
		}
	}
	callee := funcObj(pass.Pkg.Info, call.Fun)
	if callee == nil {
		// A call through a function value has no static target to prove
		// hotpath; only an audited cold exit may make one.
		if !pass.Escaped(call.Pos(), "coldpath") && !isTypeParamCall(pass, call) {
			pass.Reportf(call.Pos(), "hotpath function %s calls through a function value (target unprovable; mark the line //rws:coldpath if this is an audited slow-path exit)", fn.Name())
		}
		return
	}
	sig, _ := callee.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recvT := sig.Recv().Type()
		if isMutexType(recvT) {
			pass.Reportf(call.Pos(), "hotpath function %s takes a lock (%s.%s): the hot path is lock-free", fn.Name(), recvName(recvT), callee.Name())
			return
		}
		// Interface methods resolve to the interface's *types.Func; a
		// static target cannot be proven hotpath — require an escape.
		if types.IsInterface(recvT) {
			if !pass.Escaped(call.Pos(), "coldpath") {
				pass.Reportf(call.Pos(), "hotpath function %s calls interface method %s (target unprovable; annotate the line //rws:coldpath if this is an audited slow-path exit)", fn.Name(), callee.Name())
			}
			return
		}
	}
	path := pkgPathOf(callee)
	if reason, banned := hotpathBannedPkgs[path]; banned {
		if !pass.Escaped(call.Pos(), "coldpath") {
			pass.Reportf(call.Pos(), "hotpath function %s calls %s: %s", fn.Name(), qualifiedName(callee), reason)
		}
		return
	}
	if reason, banned := hotpathBannedFuncs[qualifiedName(callee)]; banned {
		if !pass.Escaped(call.Pos(), "coldpath") {
			pass.Reportf(call.Pos(), "hotpath function %s calls %s: %s", fn.Name(), qualifiedName(callee), reason)
		}
		return
	}
	// Module-internal callees must themselves be hotpath (or escaped).
	if modPrefix != "" && (path == modPrefix || strings.HasPrefix(path, modPrefix+"/")) {
		if !pass.Prog.Ann.Hotpath[callee] && !pass.Escaped(call.Pos(), "coldpath") {
			pass.Reportf(call.Pos(), "hotpath function %s calls %s, which is not annotated //rws:hotpath (annotate it, or mark this line //rws:coldpath as an audited slow-path exit)", fn.Name(), qualifiedName(callee))
		}
	}
}

// isTypeParamCall reports calls through type parameters (no static
// target by construction); none exist in this module today but the
// fixture harness exercises the shape.
func isTypeParamCall(pass *Pass, call *ast.CallExpr) bool {
	tv, ok := pass.Pkg.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return false
	}
	_, isTP := tv.Type.(*types.TypeParam)
	return isTP
}

// modulePrefix derives the module root from an analyzed package path:
// "rwskit/internal/serve" → "rwskit"; fixture packages ("fixture/x")
// use their own synthetic root so fixtures can exercise the
// internal-call rule among themselves.
func modulePrefix(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

// recvName renders a method receiver type for messages.
func recvName(t types.Type) string {
	if n := namedOrPointee(t); n != nil {
		return n.Obj().Name()
	}
	return t.String()
}
