package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// LockOrder builds the module-wide lock-acquisition graph — an edge
// A → B wherever lock B is acquired while A is held, directly or
// through any call chain the call graph admits — and reports every
// cycle as a potential deadlock. Locks are identified at type
// granularity as pkg.Type.field (serve.Store.mu), the level at which a
// global order is meaningful.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "the module's lock-acquisition graph is acyclic",
	Run:  runLockOrder,
}

// lockGraph is the observed acquired-while-held relation, keeping the
// first witness position per edge.
type lockGraph struct {
	edges map[lockID]map[lockID]token.Pos
}

func (g *lockGraph) add(from, to lockID, pos token.Pos) {
	if g.edges == nil {
		g.edges = make(map[lockID]map[lockID]token.Pos)
	}
	m := g.edges[from]
	if m == nil {
		m = make(map[lockID]token.Pos)
		g.edges[from] = m
	}
	if _, ok := m[to]; !ok {
		m[to] = pos
	}
}

// lockedCall is one call made while locks are held.
type lockedCall struct {
	held   []lockID
	callee *types.Func
	pos    token.Pos
}

func runLockOrder(pass *Pass) {
	prog := pass.Prog
	// Whole-program analysis: run once, on the first package's pass.
	if len(prog.Pkgs) == 0 || pass.Pkg != prog.Pkgs[0] {
		return
	}
	g := prog.CallGraph()

	// Pass 1: walk every function — direct acquisitions, direct
	// held-while-acquired edges, and the calls made with locks held.
	order := &lockGraph{}
	acquires := make(map[*types.Func]map[lockID]bool)
	var sites []lockedCall
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
				direct := make(map[lockID]bool)
				w := &lockWalker{info: pkg.Info, held: make(map[string]heldLock)}
				seedLockedEntry(w, prog.Ann.Locked[fn], fd, fn)
				w.onLock = func(call *ast.CallExpr, key string, id lockID) bool {
					if id == "" {
						return true
					}
					if prev, ok := w.held[key]; ok {
						pass.Reportf(call.Pos(), "acquires %s while already holding it (acquired at %s): guaranteed self-deadlock", id, pass.describePos(prev.pos))
						return false
					}
					for _, h := range heldIDs(w.held) {
						order.add(h, id, call.Pos())
					}
					direct[id] = true
					return true
				}
				w.onCall = func(call *ast.CallExpr) {
					held := heldIDs(w.held)
					if len(held) == 0 {
						return
					}
					callees, _ := g.CalleesAt(prog, pkg, call)
					for _, callee := range callees {
						sites = append(sites, lockedCall{held: held, callee: callee, pos: call.Pos()})
					}
				}
				w.stmts(fd.Body.List)
				acquires[fn] = direct
			}
		}
	}

	// Pass 2: fixpoint over the call graph — the full set of locks each
	// function may acquire, transitively.
	for changed := true; changed; {
		changed = false
		for fn, set := range acquires {
			for _, e := range g.Edges[fn] {
				for id := range acquires[e.Callee] {
					if !set[id] {
						set[id] = true
						changed = true
					}
				}
			}
		}
	}

	// Pass 3: edges induced by calls made with locks held — anything the
	// callee may transitively acquire is acquired under the held locks.
	for _, cs := range sites {
		for id := range acquires[cs.callee] {
			for _, h := range cs.held {
				order.add(h, id, cs.pos)
			}
		}
	}

	reportCycles(pass, order)
}

// seedLockedEntry marks the //rws:locked guard as held for the whole
// body when the guard resolves to a mutex field of the receiver type.
func seedLockedEntry(w *lockWalker, guard string, fd *ast.FuncDecl, fn *types.Func) {
	if guard == "" {
		return
	}
	recv := receiverNamed(fn)
	if recv == nil || !hasMutexField(recv, guard) {
		return
	}
	base := "<recv>"
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		base = fd.Recv.List[0].Names[0].Name
	}
	w.held[base+"."+guard] = heldLock{id: lockIDOf(recv, guard), state: lockWrite, pos: fd.Pos(), entry: true}
}

// hasMutexField reports whether named's struct declares a mutex field
// of the given name.
func hasMutexField(named *types.Named, field string) bool {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == field {
			return isMutexType(st.Field(i).Type())
		}
	}
	return false
}

// heldIDs snapshots the identities of the held locks, sorted.
func heldIDs(held map[string]heldLock) []lockID {
	out := make([]lockID, 0, len(held))
	for _, h := range held {
		if h.id != "" {
			out = append(out, h.id)
		}
	}
	slices.Sort(out)
	return out
}

// reportCycles runs a DFS over the observed graph and reports each
// cycle once, at the edge that closes it.
func reportCycles(pass *Pass, order *lockGraph) {
	const (
		white = iota
		gray
		black
	)
	color := make(map[lockID]int)
	var path []lockID
	var visit func(id lockID)
	visit = func(id lockID) {
		color[id] = gray
		path = append(path, id)
		for _, to := range sortedLockIDs(order.edges[id]) {
			switch color[to] {
			case white:
				visit(to)
			case gray:
				// Back edge id → to closes a cycle through the gray path.
				start := 0
				for i, p := range path {
					if p == to {
						start = i
						break
					}
				}
				cycle := append(append([]lockID{}, path[start:]...), to)
				parts := make([]string, len(cycle))
				for i, c := range cycle {
					parts[i] = string(c)
				}
				pass.Reportf(order.edges[id][to], "lock-order cycle (potential deadlock): %s", strings.Join(parts, " -> "))
			}
		}
		path = path[:len(path)-1]
		color[id] = black
	}
	for _, id := range sortedLockIDs(order.edges) {
		if color[id] == white {
			visit(id)
		}
	}
}

// sortedLockIDs returns the keys of m in order.
func sortedLockIDs[V any](m map[lockID]V) []lockID {
	out := make([]lockID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}
