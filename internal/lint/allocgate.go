package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// The allocgate pass turns the "0 allocs/op" benchmark claims into a
// build-time guarantee: instead of re-deriving escape analysis, it runs
// the real compiler (go build -gcflags=-m=2), parses its diagnostics,
// and fails if any //rws:hotpath or //rws:allocfree function contains a
// heap escape the compiler itself reports. //rws:allocfree is the
// strict form: zero escapes anywhere in the body AND the function must
// inline. //rws:hotpath tolerates an escape on a line annotated
// //rws:coldpath (the audited slow-path exit the hotpath analyzer
// already recognizes) and does not require inlining.
//
// The Go build cache replays -m diagnostics on cache hits, so repeat
// runs are cheap and need no forced rebuild.

// escapeFact is one parsed compiler diagnostic relevant to the gate.
type escapeFact struct {
	File string // as printed by the compiler (possibly relative)
	Line int
	Col  int
	Kind string // "escape", "moved", "noinline"
	Text string // the message after file:line:col:
}

// gcDiagRe matches one file:line:col: message compiler line.
var gcDiagRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// ParseEscapeDiags extracts the heap-escape and failed-inline facts
// from go build -gcflags=-m=2 output. Indented explanation lines and
// does-not-escape / leaking-param notes are dropped: a leaking
// parameter allocates at the caller, where it is reported again if the
// caller is gated.
func ParseEscapeDiags(output string) []escapeFact {
	var facts []escapeFact
	for _, line := range strings.Split(output, "\n") {
		m := gcDiagRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		var kind string
		switch {
		case strings.HasPrefix(msg, "moved to heap:"):
			kind = "moved"
		case strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "does not escape"):
			kind = "escape"
		case strings.HasPrefix(msg, "cannot inline "):
			kind = "noinline"
		default:
			continue
		}
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		facts = append(facts, escapeFact{File: m[1], Line: ln, Col: col, Kind: kind, Text: strings.TrimSuffix(msg, ":")})
	}
	return facts
}

// gatedFunc is one function span under the gate.
type gatedFunc struct {
	pkg       *Package
	name      string
	file      string
	startLine int
	endLine   int
	strict    bool // //rws:allocfree (zero escapes + must inline)
}

// AllocGatePatterns loads the packages matched by patterns, shells out
// to the compiler for their escape-analysis diagnostics, and returns a
// diagnostic for every gated function the compiler contradicts. The
// returned diagnostics use analyzer name "allocgate".
func AllocGatePatterns(dir string, patterns []string) ([]Diagnostic, error) {
	loader, prog, err := resolveAndLoad(dir, patterns)
	if err != nil {
		return nil, err
	}
	// The go command runs from the module root: directory patterns must
	// be ./-relative to it or they parse as import paths.
	buildPats := make([]string, 0, len(patterns))
	for _, pat := range patterns {
		if fi, statErr := os.Stat(pat); statErr == nil && fi.IsDir() {
			abs, absErr := filepath.Abs(pat)
			if absErr != nil {
				return nil, absErr
			}
			if rel, relErr := filepath.Rel(loader.ModRoot, abs); relErr == nil && !strings.HasPrefix(rel, "..") {
				pat = "./" + filepath.ToSlash(rel)
			}
		}
		buildPats = append(buildPats, pat)
	}
	args := append([]string{"build", "-gcflags=-m=2"}, buildPats...)
	cmd := exec.Command("go", args...)
	cmd.Dir = loader.ModRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m=2 failed: %v\n%s", err, out)
	}
	return gateDiagnostics(prog, loader.ModRoot, ParseEscapeDiags(string(out))), nil
}

// gateDiagnostics matches compiler facts against the gated function
// spans of the loaded program.
func gateDiagnostics(prog *Program, modRoot string, facts []escapeFact) []Diagnostic {
	gated := collectGated(prog)
	byFile := make(map[string][]*gatedFunc)
	for i := range gated {
		g := &gated[i]
		byFile[g.file] = append(byFile[g.file], g)
	}
	var diags []Diagnostic
	// -m=2 can print the same escape line more than once (one per
	// analysis pass); collapse repeats so one allocation is one finding.
	seen := make(map[string]bool)
	report := func(g *gatedFunc, f escapeFact, format string, args ...any) {
		d := Diagnostic{
			Pos:      token.Position{Filename: g.file, Line: f.Line, Column: f.Col},
			Analyzer: "allocgate",
			Message:  fmt.Sprintf(format, args...),
		}
		if s := d.String(); !seen[s] {
			seen[s] = true
			diags = append(diags, d)
		}
	}
	for _, f := range facts {
		file := f.File
		if !filepath.IsAbs(file) {
			file = filepath.Join(modRoot, file)
		}
		for _, g := range byFile[file] {
			if f.Line < g.startLine || f.Line > g.endLine {
				continue
			}
			switch f.Kind {
			case "escape", "moved":
				if _, cold := g.pkg.directiveAt(token.Position{Filename: file, Line: f.Line}, "coldpath"); cold && !g.strict {
					continue // audited slow-path allocation in a hotpath function
				}
				contract := "//rws:hotpath"
				if g.strict {
					contract = "//rws:allocfree"
				}
				report(g, f, "%s function %s has a heap allocation the compiler reports: %s", contract, g.name, f.Text)
			case "noinline":
				if g.strict {
					report(g, f, "//rws:allocfree function %s failed to inline: %s", g.name, f.Text)
				}
			}
		}
	}
	return diags
}

// collectGated lists every //rws:hotpath and //rws:allocfree function
// span of the program.
func collectGated(prog *Program) []gatedFunc {
	var out []gatedFunc
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := pkg.Info.Defs[fd.Name]
				if obj == nil {
					continue
				}
				strict := prog.Ann.AllocFree[obj]
				if !strict && !prog.Ann.Hotpath[obj] {
					continue
				}
				start := prog.Fset.Position(fd.Pos())
				end := prog.Fset.Position(fd.End())
				name := fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) > 0 {
					if n := namedOrPointee(pkg.Info.TypeOf(fd.Recv.List[0].Type)); n != nil {
						name = n.Obj().Name() + "." + name
					}
				}
				out = append(out, gatedFunc{
					pkg:       pkg,
					name:      name,
					file:      start.Filename,
					startLine: start.Line,
					endLine:   end.Line,
					strict:    strict,
				})
			}
		}
	}
	return out
}
