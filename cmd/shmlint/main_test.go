package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for driver tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestRunReportsFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"a/a.go": `package a

import (
	"errors"
	"fmt"
)

var errX = errors.New("x")

// F loses the error chain.
func F() error { return fmt.Errorf("context: %v", errX) }

func Leak() {
	go func() {
		for {
		}
	}()
}
`,
	})
	var stdout, stderr bytes.Buffer
	code := run(dir, []string{"./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"errwrap:", "goleak:", "a/a.go:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
}

func TestRunCleanModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"a/a.go": `package a

import (
	"errors"
	"fmt"
)

var errX = errors.New("x")

// F wraps properly.
func F() error { return fmt.Errorf("context: %w", errX) }
`,
	})
	var stdout, stderr bytes.Buffer
	if code := run(dir, []string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

// TestModuleLintClean runs every analyzer over this module: any finding,
// a stale //lint:ignore included, fails the suite.
func TestModuleLintClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run("../..", []string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("shmlint ./... exit code = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

func TestRunSelection(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"a/a.go": `package a

import (
	"errors"
	"fmt"
)

var errX = errors.New("x")

func F() error { return fmt.Errorf("context: %v", errX) }
`,
	})
	var stdout, stderr bytes.Buffer
	// Only goleak selected: the errwrap violation must not be reported.
	if code := run(dir, []string{"-run", "goleak", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stdout: %s", code, stdout.String())
	}
	if code := run(dir, []string{"-run", "nosuch", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown analyzer: exit code = %d, want 2", code)
	}
}

// TestListFlag pins the analyzer inventory, in execution order.
func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(".", []string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := []string{
		"guardedby", "goleak", "errwrap", "spanpair",
		"netdeadline", "lockorder", "hotalloc", "wireproto",
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("-list names = %v, want %v", names, want)
	}
}

// TestStaleDirective: an ignore directive that suppresses nothing fails the
// run at its own line, but only when its analyzer runs.
func TestStaleDirective(t *testing.T) {
	// Spelt in two pieces so a grep for the repository's own directives
	// does not count this fixture's.
	const ignore = "//lint:" + "ignore"
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"a/a.go": `package a

import (
	"errors"
	"fmt"
)

var errX = errors.New("x")

func F() error {
	` + ignore + ` errwrap stale: the call below wraps
	return fmt.Errorf("context: %w", errX)
}
`,
	})
	var stdout, stderr bytes.Buffer
	if code := run(dir, []string{"./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1; stdout: %s", code, stdout.String())
	}
	if out := stdout.String(); !strings.Contains(out, "a/a.go:11:") || !strings.Contains(out, "suppresses no errwrap finding") {
		t.Fatalf("stale directive not reported at a/a.go:11:\n%s", out)
	}
	stdout.Reset()
	if code := run(dir, []string{"-run", "goleak", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("-run goleak: exit code = %d, want 0; stdout: %s", code, stdout.String())
	}
}

// TestRemovedFlagsAreUnknown: the baseline and SARIF outputs are gone; their
// flags are usage errors, not silently ignored.
func TestRemovedFlagsAreUnknown(t *testing.T) {
	for _, flag := range []string{"-baseline=x.json", "-write-baseline", "-sarif=-"} {
		var stdout, stderr bytes.Buffer
		if code := run(".", []string{flag}, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit code = %d, want 2", flag, code)
		}
	}
}
