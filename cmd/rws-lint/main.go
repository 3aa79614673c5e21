// Command rws-lint is the repo's invariant multichecker: it runs the
// internal/lint analyzer suite — lockguard and hotpath, plus the
// interprocedural lockorder, goroleak, and ctxflow analyzers — over the
// module and exits nonzero on any finding. CI runs it as a hard gate;
// run it locally with:
//
//	go run ./cmd/rws-lint ./...
//
// Usage:
//
//	rws-lint [-list] [-allocgate] [pattern ...]
//
// Patterns are "./..." (every package in the enclosing module, the
// default), module import paths ("rwskit/internal/serve"), or plain
// directories (./internal/serve, or a fixture directory under
// testdata). The default suite is pure standard library: no x/tools,
// no network, no build cache beyond parsing GOROOT sources for type
// information. -allocgate runs the compiler escape-analysis gate
// instead of the in-process analyzers: it shells out to go build
// -gcflags=-m=2 and fails if any //rws:hotpath or //rws:allocfree
// function heap-allocates (see internal/lint/allocgate.go).
//
// Exit status: 0 clean, 1 findings, 2 usage or load/type errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rwskit/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("rws-lint", flag.ContinueOnError)
	fs.SetOutput(errw)
	list := fs.Bool("list", false, "list the analyzers and exit")
	allocgate := fs.Bool("allocgate", false, "run the compiler escape-analysis gate instead of the in-process analyzers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, az := range lint.All() {
			fmt.Fprintf(out, "%-12s %s\n", az.Name, az.Doc)
		}
		fmt.Fprintf(out, "%-12s %s\n", "allocgate", "(-allocgate) //rws:hotpath and //rws:allocfree functions are allocation-free per the compiler's own escape analysis")
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(errw, "rws-lint:", err)
		return 2
	}
	var diags []lint.Diagnostic
	if *allocgate {
		diags, err = lint.AllocGatePatterns(cwd, patterns)
	} else {
		diags, err = lint.LintPatterns(cwd, patterns)
	}
	if err != nil {
		fmt.Fprintln(errw, "rws-lint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(out, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(out, "rws-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
