// Package lint is shmlint's analyzer framework: a deliberately small,
// stdlib-only (go/ast + go/parser + go/types) reimplementation of the
// golang.org/x/tools analysis idea, specialised to this repository. The
// ShmCaffe concurrency core — the SMB store's exclusive Accumulate, the
// SEASGD main/update thread exclusion (paper Fig. 6) — depends on
// invariants that ordinary tests exercise but cannot *prove*; the
// analyzers here machine-check the conventions the code relies on
// (mutex-guarded fields, goroutine lifetime, error wrapping, span and
// deadline discipline, lock order, hot-path allocation freedom).
//
// An Analyzer inspects one type-checked package at a time through a Pass
// and reports Diagnostics. Findings can be suppressed with
//
//	//lint:ignore <analyzer> <reason>
//
// which applies to its own line and the line below when written inline or
// directly above the offending statement, and to the whole function when
// written in a function's doc comment (for code that is correct for
// reasons outside the analyzer's model, e.g. pre-publication
// initialisation). A directive that silences nothing for an analyzer that
// ran, or that names no analyzer, is itself a finding: every suppression
// in the tree stays live.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Package analyzers (Run) inspect one
// type-checked package at a time; program analyzers (RunProgram) consume
// the cross-package summary engine (program.go) and run once over the
// whole load — exactly one of the two is set.
type Analyzer struct {
	// Name is the analyzer's identifier, used by -run selection and
	// //lint:ignore directives.
	Name string
	// Doc is a one-line description shown by shmlint -list.
	Doc string
	// Run inspects the package behind pass and reports findings via
	// pass.Reportf. Nil for program analyzers.
	Run func(pass *Pass) error
	// RunProgram inspects the whole-module Program behind pass. Nil for
	// package analyzers.
	RunProgram func(pass *ProgramPass) error
}

// All is the default analyzer suite, in execution order (package analyzers
// first, then the summary-engine program analyzers).
var All = []*Analyzer{
	GuardedBy,
	GoLeak,
	ErrWrap,
	SpanPair,
	NetDeadline,
	LockOrder,
	HotAlloc,
	WireProto,
}

// Lookup returns the analyzer with the given name, or nil.
func Lookup(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ProgramPass carries one whole-module Program through one program
// analyzer.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies the package analyzers to pkg and returns the surviving
// diagnostics (ignore directives applied), sorted by position, plus one
// finding per directive in pkg that names no analyzer or that silenced
// nothing for a package analyzer that ran. Program analyzers in the list
// are skipped; drive them through RunOnProgram.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs := collectDirectives(pkg)
	ran := make(map[string]bool)
	var out []Diagnostic
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
		}
		ran[a.Name] = true
		out = append(out, suppress(pass.diags, dirs)...)
	}
	out = append(out, unusedDirectives(dirs, ran, true)...)
	sortDiagnostics(out)
	return out, nil
}

// RunOnProgram applies the program analyzers to prog — once for the whole
// load, not per package — and returns the surviving diagnostics, sorted.
// Suppression directives from every package of the program apply, so a
// //lint:ignore works wherever the diagnostic lands (a hot-path allocation
// is reported in the callee's package, not the root's), and each one
// that silenced nothing for a program analyzer that ran is reported.
func RunOnProgram(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var dirs []*directive
	for _, pkg := range prog.Pkgs {
		dirs = append(dirs, collectDirectives(pkg)...)
	}
	ran := make(map[string]bool)
	var out []Diagnostic
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		pass := &ProgramPass{Analyzer: a, Prog: prog}
		if err := a.RunProgram(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
		ran[a.Name] = true
		out = append(out, suppress(pass.diags, dirs)...)
	}
	out = append(out, unusedDirectives(dirs, ran, false)...)
	sortDiagnostics(out)
	return out, nil
}

// sortDiagnostics orders findings by file, line, then analyzer name.
func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
}

// directive is one //lint:ignore comment: the analyzer it silences, the
// lines of its file it covers, and whether it has silenced a finding.
type directive struct {
	analyzer string
	pos      token.Position // the comment itself
	from, to int
	used     bool
}

const ignorePrefix = "//lint:ignore"

// collectDirectives gathers pkg's //lint:ignore comments. A directive
// covers its own line and the next, so it works both inline and on the
// line above; one in a function's doc comment covers the whole function.
func collectDirectives(pkg *Package) []*directive {
	var out []*directive
	for _, f := range pkg.Files {
		funcEnd := make(map[*ast.Comment]int)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				for _, c := range fd.Doc.List {
					funcEnd[c] = pkg.Fset.Position(fd.End()).Line
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				p := pkg.Fset.Position(c.Pos())
				d := &directive{analyzer: name, pos: p, from: p.Line, to: p.Line + 1}
				if end, ok := funcEnd[c]; ok {
					d.to = end
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// suppress returns the diagnostics no directive covers. A covered finding
// marks only the first directive covering it as used, so a second,
// redundant directive over the same finding is reported as unused.
func suppress(diags []Diagnostic, dirs []*directive) []Diagnostic {
	var out []Diagnostic
next:
	for _, d := range diags {
		for _, dir := range dirs {
			if dir.analyzer == d.Analyzer && dir.pos.Filename == d.Pos.Filename &&
				dir.from <= d.Pos.Line && d.Pos.Line <= dir.to {
				dir.used = true
				continue next
			}
		}
		out = append(out, d)
	}
	return out
}

// unusedDirectives reports each directive for an analyzer in ran that
// silenced nothing and, with unknown set, each directive that names no
// analyzer of All.
func unusedDirectives(dirs []*directive, ran map[string]bool, unknown bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range dirs {
		var msg string
		switch {
		case unknown && Lookup(d.analyzer) == nil:
			msg = fmt.Sprintf("%s %q names no analyzer", ignorePrefix, d.analyzer)
		case ran[d.analyzer] && !d.used:
			msg = fmt.Sprintf("%s %s suppresses no %s finding; delete it", ignorePrefix, d.analyzer, d.analyzer)
		default:
			continue
		}
		out = append(out, Diagnostic{Pos: d.pos, Analyzer: "lint", Message: msg})
	}
	return out
}

// parseIgnore extracts the analyzer name from an ignore directive ("" when
// the directive names none).
func parseIgnore(text string) (analyzer string, ok bool) {
	if !strings.HasPrefix(text, ignorePrefix) {
		return "", false
	}
	if fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix)); len(fields) > 0 {
		return fields[0], true
	}
	return "", true
}
