package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockState orders how much of a guard is held.
type lockState int

const (
	lockNone lockState = iota
	lockRead
	lockWrite
)

// lockID names one lock at type granularity: pkgbase.Type.field.
type lockID string

// lockIDOf renders the type-granular lock name: pkgbase.Type.field.
func lockIDOf(owner *types.Named, field string) lockID {
	path := owner.Obj().Pkg().Path()
	base := path[strings.LastIndexByte(path, '/')+1:]
	return lockID(base + "." + owner.Obj().Name() + "." + field)
}

// heldLock is one mutex a lockWalker holds.
type heldLock struct {
	// id is the type-granular identity, "" when the mutex's base has no
	// named type to name it by.
	id    lockID
	state lockState
	pos   token.Pos
	// entry marks a lock held at entry (//rws:locked): no unlock in the
	// body releases it.
	entry bool
}

// lockWalker walks one function body in source order — the one body
// walker behind lockguard and lockorder — tracking which field mutexes
// are held, keyed by their syntactic base ("st.mu"), so an unlock
// matches the expression that locked. The scan is linear: a lock taken
// inside a branch counts as held until its unlock is seen, and a
// deferred unlock holds to the end of the function. That matches how
// every locked region in this codebase is written (lock/defer-unlock,
// or lock → touch → unlock straight-line) and errs loudly rather than
// silently on exotic shapes. A goroutine or function literal body is
// walked with the lock state at its definition point.
//
// The hooks are optional: onLock sees each Lock/RLock of a field mutex
// before it is recorded and returns false to leave it unrecorded;
// onAccess sees every field selection, as a read or a write; onCall
// sees every call that is not a mutex method.
type lockWalker struct {
	info     *types.Info
	held     map[string]heldLock
	onLock   func(call *ast.CallExpr, key string, id lockID) bool
	onAccess func(sel *ast.SelectorExpr, write bool)
	onCall   func(call *ast.CallExpr)
}

func (w *lockWalker) stmts(list []ast.Stmt) {
	for _, st := range list {
		w.stmt(st)
	}
}

func (w *lockWalker) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case nil:
	case *ast.BlockStmt:
		w.stmts(st.List)
	case *ast.ExprStmt:
		w.read(st.X, false)
	case *ast.DeferStmt:
		w.read(st.Call, true)
	case *ast.GoStmt:
		w.read(st.Call, false)
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			w.read(rhs, false)
		}
		for _, lhs := range st.Lhs {
			w.write(lhs)
		}
	case *ast.IncDecStmt:
		w.write(st.X)
	case *ast.IfStmt:
		w.stmt(st.Init)
		w.read(st.Cond, false)
		w.stmt(st.Body)
		w.stmt(st.Else)
	case *ast.ForStmt:
		w.stmt(st.Init)
		w.read(st.Cond, false)
		w.stmt(st.Post)
		w.stmt(st.Body)
	case *ast.RangeStmt:
		w.read(st.X, false)
		w.write(st.Key)
		w.write(st.Value)
		w.stmt(st.Body)
	case *ast.SwitchStmt:
		w.stmt(st.Init)
		w.read(st.Tag, false)
		w.stmt(st.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(st.Init)
		w.stmt(st.Assign)
		w.stmt(st.Body)
	case *ast.SelectStmt:
		w.stmt(st.Body)
	case *ast.CaseClause:
		for _, e := range st.List {
			w.read(e, false)
		}
		w.stmts(st.Body)
	case *ast.CommClause:
		w.stmt(st.Comm)
		w.stmts(st.Body)
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.read(e, false)
		}
	case *ast.SendStmt:
		w.read(st.Chan, false)
		w.read(st.Value, false)
	case *ast.LabeledStmt:
		w.stmt(st.Stmt)
	case *ast.BranchStmt, *ast.EmptyStmt:
	default:
		w.read(st, false)
	}
}

// read walks an expression in pre-order: mutex calls update the held
// state (deferred inside a defer statement), every other call and every
// field selection goes to the hooks, and the builtins that mutate
// through an argument count as writes.
func (w *lockWalker) read(n ast.Node, deferred bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			if w.lockCall(node, deferred) {
				return false
			}
			// delete(m, k) writes its map argument.
			if id, ok := node.Fun.(*ast.Ident); ok {
				if b, ok := w.info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" && len(node.Args) == 2 {
					w.write(node.Args[0])
					w.read(node.Args[1], deferred)
					return false
				}
			}
			if w.onCall != nil {
				w.onCall(node)
			}
		case *ast.UnaryExpr:
			// &x.f lets the field escape the lock's scope: a write.
			if node.Op == token.AND {
				if sel, ok := node.X.(*ast.SelectorExpr); ok {
					w.access(sel, true)
					w.read(sel.X, deferred)
					return false
				}
			}
		case *ast.SelectorExpr:
			w.access(node, false)
		}
		return true
	})
}

// write records a write access on the root selector of an assignable
// expression, reading everything else it touches.
func (w *lockWalker) write(e ast.Expr) {
	switch e := e.(type) {
	case nil, *ast.Ident:
	case *ast.ParenExpr:
		w.write(e.X)
	case *ast.IndexExpr:
		w.write(e.X)
		w.read(e.Index, false)
	case *ast.StarExpr:
		w.read(e.X, false)
	case *ast.SelectorExpr:
		w.access(e, true)
		w.read(e.X, false)
	default:
		w.read(e, false)
	}
}

func (w *lockWalker) access(sel *ast.SelectorExpr, write bool) {
	if w.onAccess != nil {
		w.onAccess(sel, write)
	}
}

// lockCall recognizes a Lock/RLock/Unlock/RUnlock call on a
// sync.Mutex/RWMutex and updates the held state when the receiver is a
// field selection (<base>.<field>); a bare local mutex is not tracked.
// It reports true for every such call, tracked or not, so a mutex
// method never reaches onCall.
func (w *lockWalker) lockCall(call *ast.CallExpr, deferred bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := w.info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || !isMutexType(sig.Recv().Type()) {
		return false
	}
	state := lockWrite
	switch sel.Sel.Name {
	case "Lock":
	case "RLock":
		state = lockRead
	case "Unlock", "RUnlock":
		state = lockNone
	default:
		return false
	}
	recv, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return true
	}
	key := exprKey(recv.X) + "." + recv.Sel.Name
	if state == lockNone {
		if !deferred && !w.held[key].entry {
			delete(w.held, key)
		}
		return true
	}
	var id lockID
	if owner := namedOrPointee(w.info.TypeOf(recv.X)); owner != nil && owner.Obj().Pkg() != nil {
		id = lockIDOf(owner, recv.Sel.Name)
	}
	if w.onLock == nil || w.onLock(call, key, id) {
		w.held[key] = heldLock{id: id, state: state, pos: call.Pos()}
	}
	return true
}
