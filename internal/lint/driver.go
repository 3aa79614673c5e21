package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// LintPatterns is the driver entry point behind cmd/rws-lint: it
// resolves patterns ("./..." for the whole module, a
// module import path, or a plain directory), loads the matched packages
// rooted at the module containing dir, and runs the full analyzer suite.
func LintPatterns(dir string, patterns []string) ([]Diagnostic, error) {
	_, prog, err := resolveAndLoad(dir, patterns)
	if err != nil {
		return nil, err
	}
	return prog.Run(All()), nil
}

// resolveAndLoad is the pattern-resolution core shared by LintPatterns
// and AllocGatePatterns.
func resolveAndLoad(dir string, patterns []string) (*Loader, *Program, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, nil, err
	}
	var paths, dirs []string
	for _, pat := range patterns {
		switch {
		case pat == "./...":
			all, err := loader.ModulePackages()
			if err != nil {
				return nil, nil, err
			}
			paths = append(paths, all...)
		case strings.HasPrefix(pat, loader.ModPath):
			paths = append(paths, pat)
		default:
			// A plain directory: fixture packages under testdata load
			// this way, as do ./relative spellings of module packages.
			abs, err := filepath.Abs(pat)
			if err != nil {
				return nil, nil, err
			}
			if fi, err := os.Stat(abs); err != nil || !fi.IsDir() {
				return nil, nil, fmt.Errorf("pattern %q is neither ./..., a %s import path, nor a directory", pat, loader.ModPath)
			}
			if rel, err := filepath.Rel(loader.ModRoot, abs); err == nil && !strings.HasPrefix(rel, "..") && !strings.Contains(rel, "testdata") {
				// Inside the module and importable: load under its real
				// import path so cross-package facts line up.
				if rel == "." {
					paths = append(paths, loader.ModPath)
				} else {
					paths = append(paths, loader.ModPath+"/"+filepath.ToSlash(rel))
				}
			} else {
				dirs = append(dirs, abs)
			}
		}
	}
	var prog *Program
	if len(paths) > 0 {
		if prog, err = loader.Load(paths); err != nil {
			return nil, nil, err
		}
	}
	if len(dirs) > 0 {
		if prog, err = loader.LoadDirs(dirs); err != nil {
			return nil, nil, err
		}
	}
	if prog == nil {
		return nil, nil, fmt.Errorf("no packages matched")
	}
	return loader, prog, nil
}
