// Package lint is rwskit's in-tree static-analysis suite: analyzers
// that machine-check the serve plane's lock, hot-path, goroutine and
// context contracts — the defects that no test, go vet or the compiler
// escape gate catches on their own (an unlocked guarded read, a lock
// inversion, a clock read or lock on the request path, a goroutine with
// no way to stop, a request context dropped below a handler).
//
// The suite is built on nothing but the standard library (go/parser +
// go/types); the container ships no golang.org/x/tools, so the package
// carries a minimal equivalent of the go/analysis driver and an
// analysistest-style fixture harness. The contracts themselves are
// declared in the code under analysis with comment annotations:
//
//	// guarded by mu      on a struct field: accessed only while mu
//	//                    (a sync.Mutex/RWMutex field of the same
//	//                    struct) is held — or, when the guard names a
//	//                    method instead, only from that method's
//	//                    goroutine (confinement).
//	//rws:locked mu       on a function: asserts the caller holds mu
//	//                    (the *Locked helper convention).
//	//rws:hotpath         on a function: request path — no locks, no
//	//                    wall clock, no math/rand, no map ranging, no
//	//                    append/defer/go, and module-internal calls
//	//                    only to other hotpath functions; the
//	//                    allocgate pass holds it free of heap escapes.
//	//rws:coldpath        on a call line inside a hotpath function: an
//	//                    audited exit to the slow path.
//	//rws:leakok reason   on a go-statement line: the goroutine is an
//	//                    audited exception to the provable-termination
//	//                    rule; the reason is mandatory.
//	//rws:ctxok           on a call line: an audited context.Background/
//	//                    TODO below a request handler.
//	//rws:allocfree       on a function: the compiler must prove it free
//	//                    of heap escapes AND inlinable — the strict form
//	//                    of the hotpath zero-alloc contract, checked
//	//                    against real escape-analysis output by the
//	//                    allocgate pass (rws-lint -allocgate).
//
// cmd/rws-lint is the multichecker driver; `rws-lint ./...` runs every
// analyzer over the module and exits nonzero on findings. On top of the
// per-package analyzers, the suite carries an interprocedural layer: a
// whole-module call graph (CallGraph) with static dispatch resolved
// exactly and interface/function-value calls over-approximated, feeding
// the lockorder deadlock detector and the ctxflow reachability check,
// plus the allocgate pass that parses the compiler's own escape
// analysis (go build -gcflags=-m=2) instead of re-deriving it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Package is one strictly type-checked package under analysis.
type Package struct {
	Path  string
	Name  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// lineDirectives records //rws:* escape comments by file and line,
	// for the same-line / preceding-line suppression lookup.
	lineDirectives map[string]map[int][]lineDirective
}

// lineDirective is one //rws:* comment resolved to its line: the bare
// directive name plus its argument text ("" when none).
type lineDirective struct {
	name string
	arg  string
}

// Program is the full analyzed tree plus the cross-package annotation
// facts the analyzers share.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
	Ann  *Annotations

	// cg is the lazily built whole-module call graph (see callgraph.go);
	// analyzers run sequentially, so no lock is needed.
	cg *CallGraph
}

// Diagnostic is one finding, position already resolved.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Escaped reports whether the line holding pos — or the line directly
// above it — carries the named //rws:* directive, the audited local
// suppression mechanism.
func (p *Pass) Escaped(pos token.Pos, directive string) bool {
	_, ok := p.Pkg.directiveAt(p.Prog.Fset.Position(pos), directive)
	return ok
}

// directiveAt looks the named //rws:* directive up on the line of at or
// the line directly above it, returning its argument text (the
// //rws:leakok reason, say); ok distinguishes a bare directive from no
// directive at all. It takes a resolved position so the allocgate pass
// can ask with the compiler's file:line coordinates.
func (p *Package) directiveAt(at token.Position, directive string) (arg string, ok bool) {
	lines := p.lineDirectives[at.Filename]
	for _, line := range []int{at.Line, at.Line - 1} {
		for _, d := range lines[line] {
			if d.name == directive {
				return d.arg, true
			}
		}
	}
	return "", false
}

// All returns the full analyzer suite, in reporting order. lockguard
// and hotpath check one function at a time; lockorder, goroleak, and
// ctxflow are the interprocedural layer built on the call graph. The
// allocgate pass is not listed here — it shells out to the Go compiler
// and runs through AllocGatePatterns (rws-lint -allocgate) instead of
// the pure in-process driver.
func All() []*Analyzer {
	return []*Analyzer{
		LockGuard,
		HotPath,
		LockOrder,
		GoroLeak,
		CtxFlow,
	}
}

// Run runs the analyzers over every package of the program and returns
// the findings sorted by position.
func (prog *Program) Run(analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, az := range analyzers {
		for _, pkg := range prog.Pkgs {
			pass := &Pass{Analyzer: az, Prog: prog, Pkg: pkg, diags: &diags}
			az.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// directiveRe matches one //rws:* directive comment line, capturing the
// directive name and its optional argument (which may be several words:
// a //rws:leakok reason).
var directiveRe = regexp.MustCompile(`^//rws:([a-z]+)(?:\s+(.+?))?\s*$`)

// directiveMatch matches one comment against directiveRe, first cutting
// any trailing `// want` clause so fixture expectations can share the
// directive's own line without leaking into a multi-word argument.
func directiveMatch(text string) []string {
	if i := strings.Index(text, "// want "); i > 0 {
		text = strings.TrimRight(text[:i], " \t")
	}
	return directiveRe.FindStringSubmatch(text)
}

// scanDirectives records the per-line directives of every file.
func (p *Package) scanDirectives(fset *token.FileSet) {
	p.lineDirectives = make(map[string]map[int][]lineDirective)
	for _, f := range p.Files {
		filename := fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveMatch(c.Text)
				if m == nil {
					continue
				}
				lines := p.lineDirectives[filename]
				if lines == nil {
					lines = make(map[int][]lineDirective)
					p.lineDirectives[filename] = lines
				}
				line := fset.Position(c.Pos()).Line
				lines[line] = append(lines[line], lineDirective{name: m[1], arg: m[2]})
			}
		}
	}
}

// exprKey renders an expression to a stable string, the key the
// lockguard analyzer uses to match a lock call's receiver against a
// field access's base (st.mu.Lock() ↔ st.entries; s.store.mu ↔
// s.store.cap). Expressions that do not render to a simple base (calls,
// index expressions) come out with their structure intact, which simply
// means they never match — the conservative direction.
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprKey(e.X)
	case *ast.StarExpr:
		return "*" + exprKey(e.X)
	case *ast.IndexExpr:
		return exprKey(e.X) + "[" + exprKey(e.Index) + "]"
	case *ast.BasicLit:
		return e.Value
	default:
		return fmt.Sprintf("<%T@%d>", e, e.Pos())
	}
}

// funcObj resolves a called expression to its *types.Func, or nil for
// builtins, conversions, function-typed variables, and interface
// methods that cannot be resolved statically.
func funcObj(info *types.Info, fun ast.Expr) *types.Func {
	switch f := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.ParenExpr:
		return funcObj(info, f.X)
	case *ast.IndexExpr: // generic instantiation
		return funcObj(info, f.X)
	case *ast.IndexListExpr:
		return funcObj(info, f.X)
	}
	return nil
}

// pkgPathOf returns the import path of a function's package, "" for
// builtins and universe-scope functions.
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isMutexType reports whether t (after pointer indirection) is
// sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// namedOrPointee unwraps pointers to the named type underneath, nil if
// t is not (a pointer to) a named type.
func namedOrPointee(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// receiverNamed returns the named type a method is declared on, nil for
// plain functions.
func receiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedOrPointee(sig.Recv().Type())
}

// qualifiedName renders obj as pkgpath.Name or pkgpath.Recv.Name for
// methods, the form the banned-call tables use.
func qualifiedName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if n := namedOrPointee(sig.Recv().Type()); n != nil && n.Obj().Pkg() != nil {
			return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

// describePos is a short file:line rendering used inside messages.
func (p *Pass) describePos(pos token.Pos) string {
	position := p.Prog.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", position.Filename[strings.LastIndexByte(position.Filename, '/')+1:], position.Line)
}
