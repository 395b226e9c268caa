package main

import (
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestSurfaceIsTheOnlyBinding keeps the measured-surface rule honest: only
// surface.go may import a repository package, so that file stays the whole
// list of what the benchmark depends on.
func TestSurfaceIsTheOnlyBinding(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || e.Name() == "surface.go" {
			continue
		}
		f, err := parser.ParseFile(fset, e.Name(), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "shmcaffe" || strings.HasPrefix(path, "shmcaffe/") {
				t.Errorf("%s imports %s: bind to the repository through surface.go only", e.Name(), path)
			}
		}
	}
}
