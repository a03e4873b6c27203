// Package lint is a self-contained static-analysis framework for the
// dimmunix tree, shaped after golang.org/x/tools/go/analysis but built
// entirely on the standard library (go/ast + go/types + `go list
// -export`) so the module keeps its zero-dependency invariant.
//
// Analyzers come in two flavors: per-package (Run, called once per
// loaded package) and whole-program (RunProgram, called once with every
// loaded package — the lockorder analyzer needs cross-package call
// chains). Diagnostics carry positions and optional related positions
// (the "other" call chain of a lock cycle).
//
// Findings can be suppressed at the source line with
//
//	//lint:ignore lockorder reason...
//
// on the line above (or trailing the end of) the flagged line, or for a
// whole file with
//
//	//lint:file-ignore lockorder reason...
//
// mirroring staticcheck's directive syntax. The analyzer list may be a
// comma-separated set or * for all.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name is the directive / command-line identifier (e.g. "lockorder").
	Name string
	// Doc is the one-line description shown by dimmunix-vet -help.
	Doc string

	// Run implements a per-package analyzer; called once per package.
	Run func(*Pass) error
	// RunProgram implements a whole-program analyzer; called once with
	// all loaded packages. Exactly one of Run/RunProgram must be set.
	RunProgram func(*ProgramPass) error
}

// A Pass carries one package through a per-package analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	report   func(Diagnostic)
}

// A ProgramPass carries the whole loaded program through a
// whole-program analyzer.
type ProgramPass struct {
	Analyzer *Analyzer
	*Program
	report func(Diagnostic)
}

// RelatedInfo is a secondary position attached to a diagnostic (e.g.
// the opposing call chain of a reported cycle).
type RelatedInfo struct {
	Pos     token.Pos
	Message string
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
	Related  []RelatedInfo
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Report records a fully-formed finding.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.report(d)
}

// Report records a fully-formed finding.
func (p *ProgramPass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.report(d)
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ignoreIndex holds the lint:ignore / lint:file-ignore directives of
// one loaded program, keyed by filename.
type ignoreIndex struct {
	// fileIgnores maps filename -> analyzer set (or "*").
	fileIgnores map[string]map[string]bool
	// lineIgnores maps filename -> line -> analyzer set. A directive on
	// line N suppresses findings on line N and N+1 (own-line form).
	lineIgnores map[string]map[int]map[string]bool
}

func buildIgnoreIndex(fset *token.FileSet, pkgs []*Package) *ignoreIndex {
	idx := &ignoreIndex{
		fileIgnores: map[string]map[string]bool{},
		lineIgnores: map[string]map[int]map[string]bool{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					var fileWide bool
					switch {
					case strings.HasPrefix(text, "lint:file-ignore"):
						text, fileWide = strings.TrimPrefix(text, "lint:file-ignore"), true
					case strings.HasPrefix(text, "lint:ignore"):
						text = strings.TrimPrefix(text, "lint:ignore")
					default:
						continue
					}
					fields := strings.Fields(text)
					if len(fields) == 0 {
						continue
					}
					names := map[string]bool{}
					for _, n := range strings.Split(fields[0], ",") {
						names[n] = true
					}
					pos := fset.Position(c.Pos())
					if fileWide {
						merge(idx.fileIgnores, pos.Filename, names)
						continue
					}
					lines := idx.lineIgnores[pos.Filename]
					if lines == nil {
						lines = map[int]map[string]bool{}
						idx.lineIgnores[pos.Filename] = lines
					}
					merge(lines, pos.Line, names)
					merge(lines, pos.Line+1, names)
				}
			}
		}
	}
	return idx
}

func merge[K comparable](m map[K]map[string]bool, k K, names map[string]bool) {
	if m[k] == nil {
		m[k] = map[string]bool{}
	}
	for n := range names {
		m[k][n] = true
	}
}

func (idx *ignoreIndex) suppressed(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	if s := idx.fileIgnores[pos.Filename]; s != nil && (s["*"] || s[d.Analyzer]) {
		return true
	}
	if lines := idx.lineIgnores[pos.Filename]; lines != nil {
		if s := lines[pos.Line]; s != nil && (s["*"] || s[d.Analyzer]) {
			return true
		}
	}
	return false
}

// RunAnalyzers drives every analyzer over the loaded program and
// returns the surviving (non-suppressed) diagnostics sorted by
// position. Analyzer errors (not findings) are returned as errs.
func RunAnalyzers(prog *Program, analyzers []*Analyzer) (diags []Diagnostic, errs []error) {
	idx := buildIgnoreIndex(prog.Fset, prog.Packages)
	report := func(d Diagnostic) {
		if !d.Pos.IsValid() || idx.suppressed(prog.Fset, d) {
			return
		}
		diags = append(diags, d)
	}
	for _, a := range analyzers {
		switch {
		case a.RunProgram != nil:
			pp := &ProgramPass{Analyzer: a, Program: prog, report: report}
			if err := a.RunProgram(pp); err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", a.Name, err))
			}
		case a.Run != nil:
			for _, pkg := range prog.Packages {
				pass := &Pass{Analyzer: a, Pkg: pkg, report: report}
				if err := a.Run(pass); err != nil {
					errs = append(errs, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err))
				}
			}
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := prog.Fset.Position(diags[i].Pos), prog.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, errs
}

// Format renders a diagnostic in the familiar file:line:col: analyzer:
// message form, with related positions indented beneath.
func Format(fset *token.FileSet, d Diagnostic) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s: %s", fset.Position(d.Pos), d.Analyzer, d.Message)
	for _, r := range d.Related {
		fmt.Fprintf(&b, "\n\t%s: %s", fset.Position(r.Pos), r.Message)
	}
	return b.String()
}
