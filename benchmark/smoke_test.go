package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestMain lets the test binary stand in for the harness when it is
// re-executed as a worker child.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		if err := runWorkerChild(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func testHarness(t *testing.T) *harness {
	t.Helper()
	h, err := newHarness("..", "", true)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestBenchmarkFileMatchesCatalogue: every metric and workload BENCHMARK.json
// names is one the code emits, with the same unit, and the other way round.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	var gotE2E, gotLayer []metricSpec
	for _, m := range bf.EndToEnd {
		gotE2E = append(gotE2E, metricSpec{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("end_to_end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range bf.PerLayer {
		gotLayer = append(gotLayer, metricSpec{m.Name, m.Unit})
	}
	if fmt.Sprint(gotE2E) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end:\n file %v\n code %v", gotE2E, endToEnd)
	}
	if fmt.Sprint(gotLayer) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer:\n file %v\n code %v", gotLayer, perLayer)
	}
	ws := workloads(false)
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("%d workloads in the file, %d in the code", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file %+v, code %s: %s", i, bf.Workloads[i], w.Name, w.Why)
		}
	}
}

// TestSmoke runs every workload at toy size, untraced and traced, and checks
// that each run is correct and emits exactly the catalogue's metrics.
func TestSmoke(t *testing.T) {
	h := testHarness(t)
	h.traceDir = t.TempDir()
	for _, w := range workloads(true) {
		if w.Transport == "shm" && !shmSupported() {
			t.Logf("%s skipped: no shm transport in this build", w.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			res, err := h.measure(w, 7, 0.3, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, s := range want {
				got, ok := res.Metrics[s.Name]
				if !ok || got.Unit != s.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", w.Name, traced, s.Name, got, ok, s.Unit)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, s.Name, got.Value)
				}
			}
			if traced {
				if _, err := os.Stat(res.TraceFile); err != nil {
					t.Errorf("%s: trace file: %v", w.Name, err)
				}
				if len(res.Recon) == 0 {
					t.Errorf("%s: no reconciliation table", w.Name)
				}
			}
		}
	}
}

// TestFailedRunLeavesNothingBehind breaks a run after the server, its shm
// control socket and one worker are up, and checks the launcher's teardown:
// no child process, no scratch directory or socket, no mapped memfd.
func TestFailedRunLeavesNothingBehind(t *testing.T) {
	h := testHarness(t)
	w := workloads(true)[0]
	if shmSupported() {
		w.Transport = "shm"
	}
	w.Model.Kind = "no such model" // workers dial, then fail building their data
	if _, err := h.runTraining(w, 1, 0.2); err == nil {
		t.Fatal("the broken run did not fail")
	}
	if kids := childProcesses(t); len(kids) != 0 {
		t.Errorf("child processes left behind: %v", kids)
	}
	left, err := os.ReadDir(filepath.Join(buildDir(h.root), "run"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("scratch entry left behind: %s", e.Name())
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc: cannot look for memfds")
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.Contains(target, "memfd:") {
			t.Errorf("memfd left open: %s", target)
		}
	}
}

// childProcesses lists live or zombie children of the test process.
func childProcesses(t *testing.T) []string {
	t.Helper()
	procs, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil || len(procs) == 0 {
		t.Skip("no /proc: cannot list child processes")
	}
	self := fmt.Sprint(syscall.Getpid())
	var kids []string
	for _, p := range procs {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue // exited while we looked
		}
		// pid (comm) state ppid ...; comm may hold spaces, so cut after ")".
		_, rest, ok := strings.Cut(string(raw), ") ")
		if !ok {
			continue
		}
		if f := strings.Fields(rest); len(f) > 1 && f[1] == self {
			kids = append(kids, string(raw))
		}
	}
	return kids
}
