package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExhibit(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exhibit", "fig7"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig. 7") {
		t.Fatalf("missing title: %q", out.String())
	}
	if !strings.Contains(out.String(), "96.0%") {
		t.Fatalf("missing saturation row: %q", out.String())
	}
}

func TestRunTableExhibits(t *testing.T) {
	for _, name := range []string{"table1", "table3", "table4", "table5", "table6", "fig10", "fig15", "table2"} {
		var out bytes.Buffer
		if err := run([]string{"-exhibit", name}, &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Len() == 0 {
			t.Fatalf("%s produced no output", name)
		}
	}
}

func TestRunConvergenceExhibitSmall(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exhibit", "fig8", "-workers", "2", "-epochs", "2", "-per-class", "30"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ShmCaffe") {
		t.Fatalf("fig8 missing platform rows: %q", out.String())
	}
}

func TestRunCSVMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exhibit", "table4", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(out.String(), "\n", 2)[0]
	if !strings.Contains(first, ",") {
		t.Fatalf("not CSV: %q", first)
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exhibit", "fig99"}, &out); err == nil {
		t.Fatal("expected error for unknown exhibit")
	}
	if err := run([]string{}, &out); err == nil {
		t.Fatal("expected error for no mode")
	}
}

// TestRemovedFlagsAreUnknown pins the deletion of the kernel/serve
// microbenchmark modes: their numbers come from go test -bench in the
// owning packages and from the repo benchmark's per-layer rows.
func TestRemovedFlagsAreUnknown(t *testing.T) {
	for _, args := range [][]string{
		{"-kernels"},
		{"-kernels-out", "x"},
		{"-kernels-quick"},
		{"-serve"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run(%q) = %v, want an unknown-flag error", args, err)
		}
	}
}

// exhibitNames runs an unknown exhibit and returns the names the error
// offers, which come from the same table run dispatches on.
func exhibitNames(t *testing.T) []string {
	t.Helper()
	err := run([]string{"-exhibit", "fig99"}, io.Discard)
	if err == nil {
		t.Fatal("expected error for unknown exhibit")
	}
	_, have, ok := strings.Cut(err.Error(), "(have ")
	if !ok {
		t.Fatalf("unknown-exhibit error lists no names: %v", err)
	}
	return strings.Split(strings.TrimSuffix(have, ")"), ", ")
}

func TestExhibitHelpNamesEveryExhibit(t *testing.T) {
	// The flag package prints -h usage to os.Stderr; capture it.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	runErr := run([]string{"-h"}, io.Discard)
	os.Stderr = stderr
	w.Close()
	help, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr == nil {
		t.Fatal("-h returned no error")
	}
	_, exhibitHelp, _ := strings.Cut(string(help), "-exhibit string")
	exhibitHelp, _, _ = strings.Cut(exhibitHelp, "\n  -")
	names := exhibitNames(t)
	if len(names) < 13 {
		t.Fatalf("exhibit table lists %d names (%q), want at least 13", len(names), names)
	}
	for _, name := range names {
		if !strings.Contains(exhibitHelp, name) {
			t.Errorf("-exhibit help %q omits %s", exhibitHelp, name)
		}
	}
}

func TestRunEq8Exhibit(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exhibit", "eq8"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Eq. (8) decomposition") || !strings.Contains(out.String(), "T_iter") {
		t.Fatalf("eq8 missing title or columns: %q", out.String())
	}
}

func TestRunAllWithOutDir(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	// Keep convergence exhibits tiny.
	err := run([]string{"-all", "-out", dir, "-workers", "2", "-epochs", "2", "-per-class", "30"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table2.txt", "table2.csv", "fig7.txt", "fig15.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
	}
}
