// Command shmlint runs the project's static-analysis suite
// (internal/lint) over module packages. It is part of the tier-1 gate
// (TestModuleLintClean runs it over this module under go test ./...):
// the analyzers machine-check the concurrency conventions the SMB/SEASGD
// core depends on — mutex-guarded field access, goroutine lifetime, %w
// error wrapping, span and deadline discipline, and (through the
// cross-package summary engine) lock acquisition order, hot-path
// allocation freedom, and per-opcode latency observation.
//
// Usage:
//
//	shmlint [-list] [-run name,name] [packages...]
//
// Package patterns are module-relative ("./...", "./internal/smb", or
// full import paths); the default is ./... . An ignore directive that
// suppresses nothing for an analyzer that ran, or that names no analyzer,
// is reported like any other finding.
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"shmcaffe/internal/lint"
)

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable driver body; dir is any directory inside the target
// module.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a := lint.Lookup(name)
			if a == nil {
				fmt.Fprintf(stderr, "shmlint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(dir)
	if err != nil {
		fmt.Fprintln(stderr, "shmlint:", err)
		return 2
	}
	dirs, err := loader.ExpandPatterns(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "shmlint:", err)
		return 2
	}

	// Package analyzers run per package; the summary-engine analyzers run
	// once over the whole load afterwards.
	var diags []lint.Diagnostic
	var targets []*lint.Package
	for _, pkgDir := range dirs {
		pkg, err := loader.LoadDir(pkgDir)
		if err != nil {
			fmt.Fprintln(stderr, "shmlint:", err)
			return 2
		}
		targets = append(targets, pkg)
		ds, err := lint.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(stderr, "shmlint:", err)
			return 2
		}
		diags = append(diags, ds...)
	}
	prog := lint.BuildProgram(loader, targets)
	ds, err := lint.RunOnProgram(prog, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "shmlint:", err)
		return 2
	}
	diags = append(diags, ds...)

	// Print module-relative forward-slash paths.
	for i := range diags {
		if rel, err := filepath.Rel(loader.ModuleDir(), diags[i].Pos.Filename); err == nil {
			diags[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "shmlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
