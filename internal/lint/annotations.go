package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// guardKind classifies what a `// guarded by X` annotation names.
type guardKind int

const (
	// guardMutex: X is a sync.Mutex/RWMutex field of the same struct;
	// accesses must happen while it is held.
	guardMutex guardKind = iota
	// guardOwner: X is a method of the same type; the field is confined
	// to that method's goroutine (only X itself and //rws:locked X
	// functions may touch it).
	guardOwner
	// guardInvalid: X names neither; lockguard reports the annotation.
	guardInvalid
)

// guardSpec is one resolved field-guard annotation.
type guardSpec struct {
	Name string
	Kind guardKind
	// Owner is the named type declaring the guarded field, so the
	// confinement check can match a method against the right type.
	Owner *types.Named
	// Pos is the annotation's position, for reporting invalid guards.
	Pos token.Pos
}

// Annotations is the program-wide contract registry: which functions
// are hotpath/allocfree/lock-asserting, and which fields are guarded.
// Collected once over every strictly-loaded package so cross-package
// facts (a hotpath callee in internal/core, say) resolve without
// per-analyzer plumbing.
type Annotations struct {
	Hotpath   map[types.Object]bool
	AllocFree map[types.Object]bool
	Locked    map[types.Object]string
	Guarded   map[types.Object]guardSpec
}

var guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// collectAnnotations scans every package's declarations for the
// contract comments.
func collectAnnotations(prog *Program) *Annotations {
	ann := &Annotations{
		Hotpath:   make(map[types.Object]bool),
		AllocFree: make(map[types.Object]bool),
		Locked:    make(map[types.Object]string),
		Guarded:   make(map[types.Object]guardSpec),
	}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					ann.collectFunc(pkg, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							ann.collectFields(pkg, ts)
						}
					}
				}
			}
		}
	}
	return ann
}

// collectFunc records //rws:hotpath, //rws:allocfree, and //rws:locked
// from a function's doc comment.
func (ann *Annotations) collectFunc(pkg *Package, d *ast.FuncDecl) {
	if d.Doc == nil {
		return
	}
	obj := pkg.Info.Defs[d.Name]
	if obj == nil {
		return
	}
	for _, c := range d.Doc.List {
		m := directiveMatch(c.Text)
		if m == nil {
			continue
		}
		switch m[1] {
		case "hotpath":
			ann.Hotpath[obj] = true
		case "allocfree":
			ann.AllocFree[obj] = true
		case "locked":
			if m[2] != "" {
				ann.Locked[obj] = m[2]
			}
		}
	}
}

// collectFields records `// guarded by X` field annotations from a
// struct type declaration, resolving each guard to a mutex field or an
// owning method of the declared type.
func (ann *Annotations) collectFields(pkg *Package, ts *ast.TypeSpec) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return
	}
	for _, field := range st.Fields.List {
		guard, pos, ok := fieldGuard(field)
		if !ok {
			continue
		}
		spec := guardSpec{Name: guard, Kind: resolveGuardKind(named, guard), Owner: named, Pos: pos}
		for _, name := range field.Names {
			if obj := pkg.Info.Defs[name]; obj != nil {
				ann.Guarded[obj] = spec
			}
		}
	}
}

// fieldGuard extracts `guarded by X` from a field's doc or trailing
// line comment.
func fieldGuard(field *ast.Field) (guard string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if m := guardedByRe.FindStringSubmatch(c.Text); m != nil {
				return m[1], c.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}

// resolveGuardKind decides the discipline a guard name selects: a
// sync.Mutex/RWMutex field of the struct means lock discipline, a
// method of the type means goroutine confinement, anything else is an
// annotation error lockguard reports.
func resolveGuardKind(named *types.Named, guard string) guardKind {
	st, ok := named.Underlying().(*types.Struct)
	if ok {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == guard {
				if isMutexType(f.Type()) {
					return guardMutex
				}
				return guardInvalid
			}
		}
	}
	// Not a field: accept a method of the type (value or pointer
	// receiver) as a confinement owner.
	for _, t := range []types.Type{named, types.NewPointer(named)} {
		ms := types.NewMethodSet(t)
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == guard {
				return guardOwner
			}
		}
	}
	return guardInvalid
}
