package lint

import (
	"go/ast"
	"go/types"
)

// LockGuard enforces `// guarded by X` field annotations: a guarded
// field may only be read while its mutex is held (write access needs
// the write lock, not just RLock), or — when the guard names a method
// instead of a mutex — only from that owning method's call tree
// (goroutine confinement, the source.Watcher discipline). Functions
// annotated `//rws:locked X` assert their caller holds X and are
// treated as holding it for their whole body; the *Locked helper
// convention (Store.evictLocked) becomes machine-checked instead of
// nominal. A guarded value read after the unlock fails the build; no
// test or go vet catches that read unless a race test happens to hit
// it.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  "guarded struct fields are only accessed with their lock held (or inside their owning goroutine)",
	Run:  runLockGuard,
}

func runLockGuard(pass *Pass) {
	// Report unresolvable guard annotations once, where they are declared.
	for obj, spec := range pass.Prog.Ann.Guarded {
		if spec.Kind == guardInvalid && obj.Pkg() == pass.Pkg.Types {
			pass.Reportf(spec.Pos, "guard %q of field %s is neither a sync.Mutex/RWMutex field nor a method of the declaring type", spec.Name, obj.Name())
		}
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			// //rws:locked X: fn holds X (on every base) for its whole body.
			locked := pass.Prog.Ann.Locked[fn]
			w := &lockWalker{info: pass.Pkg.Info, held: make(map[string]heldLock)}
			w.onAccess = func(sel *ast.SelectorExpr, write bool) { checkGuarded(pass, w, fn, locked, sel, write) }
			w.stmts(fd.Body.List)
		}
	}
}

// checkGuarded checks one field selection inside fn against the locks
// the walker holds there and the guard fn is annotated as holding.
func checkGuarded(pass *Pass, w *lockWalker, fn *types.Func, locked string, sel *ast.SelectorExpr, write bool) {
	obj := pass.Pkg.Info.Uses[sel.Sel]
	if obj == nil {
		return
	}
	spec, guarded := pass.Prog.Ann.Guarded[obj]
	if !guarded {
		return
	}
	switch spec.Kind {
	case guardInvalid:
		return // the bad annotation is reported separately
	case guardOwner:
		if locked == spec.Name || isOwnerMethod(fn, spec) {
			return
		}
		pass.Reportf(sel.Sel.Pos(), "%s is confined to %s: access it only from %s or a function annotated //rws:locked %s",
			obj.Name(), spec.Name, spec.Name, spec.Name)
	case guardMutex:
		state := w.held[exprKey(sel.X)+"."+spec.Name].state
		if locked == spec.Name {
			state = lockWrite
		}
		need, verb := lockRead, "read of"
		if write {
			need, verb = lockWrite, "write to"
		}
		if state >= need {
			return
		}
		if write && state == lockRead {
			pass.Reportf(sel.Sel.Pos(), "write to %s (guarded by %s) while holding only the read lock", obj.Name(), spec.Name)
			return
		}
		pass.Reportf(sel.Sel.Pos(), "%s %s (guarded by %s) without holding %s.%s", verb, obj.Name(), spec.Name, exprKey(sel.X), spec.Name)
	}
}

// isOwnerMethod reports whether fn is the confinement owner named by
// spec, on the type that declares the field.
func isOwnerMethod(fn *types.Func, spec guardSpec) bool {
	if fn == nil || fn.Name() != spec.Name {
		return false
	}
	recv := receiverNamed(fn)
	return recv != nil && spec.Owner != nil && recv.Obj() == spec.Owner.Obj()
}
