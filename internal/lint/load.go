package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, typechecked package.
type Package struct {
	PkgPath string
	Name    string
	Dir     string
	Fset    *token.FileSet
	// Files are the parsed sources: GoFiles, plus in-package test files
	// when Options.Tests is set.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects soft typecheck errors (the package is still
	// analyzed as far as the checker got).
	TypeErrors []error
}

// Program is a loaded set of packages sharing one FileSet.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
	result   *Result // the whole-program analysis, once computed
}

// Options configure Load.
type Options struct {
	// Dir is the working directory for `go list` (the module root, or
	// any directory inside it). Empty means the current directory.
	Dir string
	// Tests includes in-package _test.go files in each target package.
	// External (_test package) files are not loaded: their export data
	// is never produced, so they cannot be typechecked offline.
	Tests bool
}

// listPkg is the subset of `go list -json` output the loader reads.
type listPkg struct {
	ImportPath  string
	Name        string
	Dir         string
	Export      string
	GoFiles     []string
	CgoFiles    []string
	TestGoFiles []string
	Standard    bool
	DepOnly     bool
	ForTest     string
	Incomplete  bool
	Error       *struct{ Err string }
}

// Load lists patterns with the go tool, then parses and typechecks each
// matched package from source against the compiled export data of its
// dependencies. This works fully offline: `go list -export` materializes
// the dependency exports in the build cache, and go/importer's gc
// lookup mode reads them back, so no network or GOPATH download is ever
// needed.
func Load(opts Options, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := []string{"list", "-e", "-export", "-deps", "-json"}
	if opts.Tests {
		args = append(args, "-test")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = opts.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := map[string]string{} // import path -> export data file
	var targets []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decode: %w", err)
		}
		if p.Export != "" {
			// Test variants ("p [p.test]") shadow the plain package with a
			// test-augmented export; prefer the plain one, fall back to the
			// variant so test-only dependencies still resolve.
			key := p.ImportPath
			if i := strings.Index(key, " ["); i >= 0 {
				key = key[:i]
			}
			if _, ok := exports[key]; !ok || p.ForTest == "" {
				exports[key] = p.Export
			}
		}
		if p.DepOnly || p.Standard || p.ForTest != "" ||
			strings.HasSuffix(p.ImportPath, ".test") || p.Name == "" {
			continue
		}
		pc := p
		targets = append(targets, &pc)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	prog := &Program{Fset: fset}
	for _, t := range targets {
		pkg, err := typecheck(fset, imp, t, opts.Tests)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.ImportPath, err)
		}
		if pkg != nil {
			prog.Packages = append(prog.Packages, pkg)
		}
	}
	return prog, nil
}

func typecheck(fset *token.FileSet, imp types.Importer, t *listPkg, tests bool) (*Package, error) {
	names := append([]string{}, t.GoFiles...)
	if tests {
		names = append(names, t.TestGoFiles...)
	}
	if len(names) == 0 || len(t.CgoFiles) > 0 {
		// Nothing to analyze, or cgo (whose generated sources we cannot
		// reproduce offline) — skip rather than fail the whole load.
		return nil, nil
	}
	var files []*ast.File
	for _, name := range names {
		path := filepath.Join(t.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg := &Package{
		PkgPath: t.ImportPath,
		Name:    t.Name,
		Dir:     t.Dir,
		Fset:    fset,
		Files:   files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns the package even on (soft) errors; analyzers work
	// with whatever type information survived.
	tp, _ := conf.Check(t.ImportPath, fset, files, pkg.Info)
	pkg.Types = tp
	return pkg, nil
}

// FirstTypeError returns the first soft typecheck error across the
// program, or nil. The corpus runner uses it to fail fast on broken
// fixtures instead of chasing phantom diagnostics.
func (p *Program) FirstTypeError() error {
	for _, pkg := range p.Packages {
		if len(pkg.TypeErrors) > 0 {
			return fmt.Errorf("%s: %v", pkg.PkgPath, pkg.TypeErrors[0])
		}
	}
	return nil
}
