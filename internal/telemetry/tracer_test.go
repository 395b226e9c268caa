package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestPhaseNames(t *testing.T) {
	want := []string{"T1", "T2", "T4+T5", "T.A1", "T.A3", "T.A4", "T.A5"}
	for i, name := range want {
		if got := Phase(i).String(); got != name {
			t.Errorf("Phase(%d) = %q, want %q", i, got, name)
		}
		p, ok := PhaseFromName(name)
		if !ok || p != Phase(i) {
			t.Errorf("PhaseFromName(%q) = %v,%v", name, p, ok)
		}
	}
	// The push is one T.A3 span; T.A2 names no phase.
	for _, name := range []string{"T9", "T.A2"} {
		if _, ok := PhaseFromName(name); ok {
			t.Errorf("PhaseFromName accepted the unknown label %q", name)
		}
	}
	for p := PhaseT1; p <= PhaseTA5; p++ {
		want := p >= PhaseTA1 && p <= PhaseTA4
		if HiddenPhase(p) != want {
			t.Errorf("HiddenPhase(%v) = %v, want %v", p, !want, want)
		}
	}
}

func TestTracerRecordsSpans(t *testing.T) {
	tr := NewTracer(128)
	sp := tr.Begin(MainTID(1), PhaseT45)
	time.Sleep(time.Millisecond)
	sp.End()
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	rec := tr.snapshot()[0]
	if rec.phase != PhaseT45 || rec.tid != MainTID(1) {
		t.Fatalf("recorded %+v", rec)
	}
	if rec.dur < int64(500*time.Microsecond) {
		t.Fatalf("dur = %v, want >= 0.5ms", time.Duration(rec.dur))
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(64)
	const total = 200
	for i := 0; i < total; i++ {
		tr.Begin(0, PhaseT1).End()
	}
	if tr.Len() != 64 {
		t.Fatalf("Len = %d, want 64", tr.Len())
	}
	if got := tr.Dropped(); got != total-64 {
		t.Fatalf("Dropped = %d, want %d", got, total-64)
	}
	// No threads were named, so Events holds the surviving spans plus the
	// one clock_epoch metadata record.
	if n := len(tr.Events()); n != 64+1 {
		t.Fatalf("Events = %d, want 65", n)
	}
}

// TestTracerConcurrent hammers Begin/End from many goroutines; tier 2 runs
// this package under -race. Every End must land in some slot without a data
// race, and the drop accounting must be exact.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(1 << 10)
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := tr.Begin(MainTID(w), Phase(i%NumPhases))
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := tr.Len() + int(tr.Dropped()); got != workers*perWorker {
		t.Fatalf("Len+Dropped = %d, want %d", got, workers*perWorker)
	}
}

func TestSpanZeroAlloc(t *testing.T) {
	tr := NewTracer(1 << 12)
	if n := testing.AllocsPerRun(500, func() {
		sp := tr.Begin(UpdateTID(0), PhaseTA3)
		sp.End()
	}); n != 0 {
		t.Errorf("Tracer Begin/End allocates %.1f per span", n)
	}
	var nilTr *Tracer
	if n := testing.AllocsPerRun(500, func() {
		sp := nilTr.Begin(0, PhaseT1)
		sp.End()
	}); n != 0 {
		t.Errorf("nil Tracer Begin/End allocates %.1f per span", n)
	}
}
