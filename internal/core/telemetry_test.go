package core

import (
	"strings"
	"testing"

	"shmcaffe/internal/telemetry"
)

// TestWorkerTelemetryPhases runs two instrumented workers and checks the
// acceptance surface: every Fig. 6 phase appears as at least one span on the
// right thread track, the staleness histogram saw observations, and the
// Prometheus exposition carries the phase/staleness families.
func TestWorkerTelemetryPhases(t *testing.T) {
	job := newTestJob(t, 2, 7)
	reg := telemetry.NewRegistry()
	tel := telemetry.NewTrainer(reg, 1<<14)
	runWorkers(t, job, func(rank int, cfg *WorkerConfig) {
		cfg.Telemetry = tel
	})

	events := tel.Tracer.Events()
	if len(events) == 0 {
		t.Fatal("no trace events recorded")
	}
	// phase name -> set of tids that recorded it
	seen := make(map[string]map[int]bool)
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		if seen[ev.Name] == nil {
			seen[ev.Name] = make(map[int]bool)
		}
		seen[ev.Name][ev.TID] = true
	}
	// Worker phases only: the srv.* phases are recorded by an smb.Server
	// with a tracer installed, which an in-process worker run has none of.
	for p := telemetry.Phase(0); p <= telemetry.PhaseTA5; p++ {
		name := p.String()
		tids := seen[name]
		if len(tids) == 0 {
			t.Errorf("phase %s: no spans recorded", name)
			continue
		}
		// Hidden phases belong on update-thread tracks (odd tid), the
		// rest on main-thread tracks (even tid).
		for tid := range tids {
			update := tid%2 == 1
			if telemetry.HiddenPhase(p) != update {
				t.Errorf("phase %s recorded on tid %d (update=%v)", name, tid, update)
			}
		}
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`seasgd_phase_seconds_count{phase="T1"}`,
		`seasgd_phase_seconds_count{phase="T.A3"}`,
		"seasgd_t1_staleness_iterations_count",
		"seasgd_iterations_total",
		"seasgd_pushes_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Both workers ran 40 iterations; every T1 read observes staleness.
	if !strings.Contains(out, "seasgd_iterations_total 80") {
		t.Errorf("iteration counter wrong:\n%s", grepLines(out, "seasgd_iterations_total"))
	}
}

// TestHybridTelemetryPhases: a 2-group hybrid run records root-member spans
// for compute and every exchange phase, and — the probe living in the
// engine — feeds the T1 staleness histogram like a Worker does.
func TestHybridTelemetryPhases(t *testing.T) {
	reg := telemetry.NewRegistry()
	tel := telemetry.NewTrainer(reg, 1<<14)
	configs, _, _ := buildHybridJob(t, 2, 2, 9)
	for gi := range configs {
		configs[gi].Telemetry = tel
	}
	runHybrid(t, configs)

	seen := make(map[string]bool)
	for _, ev := range tel.Tracer.Events() {
		if ev.Ph == "X" {
			seen[ev.Name] = true
		}
	}
	for _, want := range []string{"T4+T5", "T1", "T2", "T.A1", "T.A3", "T.A4", "T.A5"} {
		if !seen[want] {
			t.Errorf("hybrid run missing %s spans (saw %v)", want, seen)
		}
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := telemetry.SampleValue(samples, "seasgd_t1_staleness_iterations_count", nil); n == 0 {
		t.Errorf("hybrid roots recorded no T1 staleness observations:\n%s",
			grepLines(b.String(), "seasgd_t1_staleness"))
	}
}

// grepLines returns the lines of s containing sub, for failure messages.
func grepLines(s, sub string) string {
	var out []string
	for _, ln := range strings.Split(s, "\n") {
		if strings.Contains(ln, sub) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}
