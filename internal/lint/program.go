package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Program is the cross-package view the summary-engine analyzers consume:
// the module-local import closure of the analysis targets, with one
// Summary per function (locks acquired, allocations performed, dispatch
// switches, static callees). Analyzers walk
// summaries and the call graph instead of re-visiting ASTs, so an
// interprocedural property — "everything Store.Accumulate transitively
// calls is allocation-free" — is a graph traversal, not a type-checker
// pass.
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	// Pkgs is the module-local closure of the targets, sorted by path.
	Pkgs []*Package
	// Funcs maps every function/method declared in Pkgs to its summary.
	Funcs map[*types.Func]*FuncInfo

	// funcs is Funcs in declaration order (file, then position) for
	// deterministic analyzer output.
	funcs []*FuncInfo
}

// FuncInfo is one declared function with its summary.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	Sum  *Summary
}

// BuildProgram assembles the Program for the given target packages: the
// targets plus every module-local package they transitively import (the
// loader memoizes those during type-checking, so no extra parsing
// happens). Standard-library packages are outside the program — calls into
// them are resolved by name against small allow/deny lists, never
// traversed.
func BuildProgram(l *Loader, targets []*Package) *Program {
	prog := &Program{
		Fset:       l.Fset,
		ModulePath: l.ModulePath(),
		Funcs:      make(map[*types.Func]*FuncInfo),
	}
	seen := make(map[string]bool)
	var queue []*Package
	add := func(p *Package) {
		if p != nil && !seen[p.Path] {
			seen[p.Path] = true
			queue = append(queue, p)
			prog.Pkgs = append(prog.Pkgs, p)
		}
	}
	for _, t := range targets {
		add(t)
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, imp := range p.Types.Imports() {
			if l.local(imp.Path()) {
				add(l.Loaded(imp.Path()))
			}
		}
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })

	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				// Body-less declarations (assembly-backed kernels) stay in
				// the program: summarize marks them AsmBacked with an empty
				// fact set, so call chains through them resolve instead of
				// silently falling off the module boundary.
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg}
				fi.Sum = summarize(fi)
				prog.Funcs[obj] = fi
				prog.funcs = append(prog.funcs, fi)
			}
		}
	}
	sort.Slice(prog.funcs, func(i, j int) bool {
		a := prog.Fset.Position(prog.funcs[i].Decl.Pos())
		b := prog.Fset.Position(prog.funcs[j].Decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return prog
}

// FuncsInOrder returns every summarized function in deterministic
// (file, position) order.
func (p *Program) FuncsInOrder() []*FuncInfo { return p.funcs }

// shortName trims the module path off a qualified name for display:
// "shmcaffe/internal/smb.Store.mu" → "smb.Store.mu".
func (p *Program) shortName(qualified string) string {
	if i := strings.LastIndex(qualified, "/"); i >= 0 {
		return qualified[i+1:]
	}
	return qualified
}

// funcDisplayName renders a function for diagnostics: "(*Store).Accumulate"
// for methods, "accumulateChunk" for plain functions, qualified with the
// package name when fn is not in the same package as the diagnostic
// context is ambiguous (we always include it for clarity across packages).
func funcDisplayName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = "*"
		}
		if named, ok := t.(*types.Named); ok {
			return "(" + ptr + named.Obj().Name() + ")." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
