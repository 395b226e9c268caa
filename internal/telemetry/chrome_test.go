package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"
	"time"
)

// buildSampleTracer records one synthetic iteration for two workers with
// every Fig. 6 phase present.
func buildSampleTracer(t *testing.T) *Tracer {
	t.Helper()
	tr := NewTracer(256)
	for rank := 0; rank < 2; rank++ {
		tr.NameThread(MainTID(rank), "worker main")
		tr.NameThread(UpdateTID(rank), "worker update")
		for _, p := range []Phase{PhaseT1, PhaseT2, PhaseT45, PhaseTA5} {
			sp := tr.Begin(MainTID(rank), p)
			time.Sleep(200 * time.Microsecond)
			sp.End()
		}
		for _, p := range []Phase{PhaseTA1, PhaseTA3, PhaseTA4} {
			sp := tr.Begin(UpdateTID(rank), p)
			time.Sleep(200 * time.Microsecond)
			sp.End()
		}
	}
	return tr
}

// TestChromeTraceGolden: the export must be valid trace_event JSON whose
// span names are exactly the Fig. 6 phase labels, with per-worker
// main/update tracks.
func TestChromeTraceGolden(t *testing.T) {
	tr := buildSampleTracer(t)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}

	// Must be plain valid JSON in the object form.
	var obj struct {
		TraceEvents     []TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if obj.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", obj.DisplayTimeUnit)
	}

	seen := map[string]int{}
	meta := 0
	epochs := 0
	for _, ev := range obj.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "clock_epoch" {
				epochs++
				if ev.Args["epoch_unix_nano"] == "" {
					t.Errorf("clock_epoch event missing epoch_unix_nano: %+v", ev)
				}
				continue
			}
			meta++
			if ev.Name != "thread_name" || ev.Args["name"] == "" {
				t.Errorf("bad metadata event %+v", ev)
			}
		case "X":
			if _, ok := PhaseFromName(ev.Name); !ok {
				t.Errorf("span name %q is not a Fig. 6 phase label", ev.Name)
			}
			if ev.Dur <= 0 {
				t.Errorf("span %q has non-positive dur %v", ev.Name, ev.Dur)
			}
			seen[ev.Name]++
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if meta != 4 { // 2 workers x (main, update)
		t.Errorf("thread_name events = %d, want 4", meta)
	}
	if epochs != 1 {
		t.Errorf("clock_epoch events = %d, want 1", epochs)
	}
	for _, name := range []string{"T1", "T2", "T4+T5", "T.A1", "T.A3", "T.A4", "T.A5"} {
		if seen[name] != 2 {
			t.Errorf("phase %q appears %d times, want 2 (one per worker)", name, seen[name])
		}
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	tr := buildSampleTracer(t)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteChromeTraceFile(path); err != nil {
		t.Fatal(err)
	}
	events, err := LoadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(tr.Events()) {
		t.Fatalf("round trip lost events: %d != %d", len(events), len(tr.Events()))
	}

	// Bare-array form parses too.
	arr, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	events2, err := ParseChromeTrace(arr)
	if err != nil {
		t.Fatal(err)
	}
	if len(events2) != len(events) {
		t.Fatalf("bare array parse lost events: %d != %d", len(events2), len(events))
	}
	if _, err := ParseChromeTrace([]byte("not json")); err == nil {
		t.Error("ParseChromeTrace accepted garbage")
	}
}

func TestComputeBreakdown(t *testing.T) {
	// Hand-built trace: one worker, compute 10ms, hidden work 2+4+1=7ms,
	// exposed 4ms, blocked 0.5ms, plus one unknown event.
	ms := func(d float64) float64 { return d * 1e3 } // ms -> us
	events := []TraceEvent{
		{Name: "thread_name", Ph: "M", TID: 0},
		{Name: "T1", Ph: "X", TS: 0, Dur: ms(3), TID: 0},
		{Name: "T2", Ph: "X", TS: ms(3), Dur: ms(1), TID: 0},
		{Name: "T4+T5", Ph: "X", TS: ms(4), Dur: ms(10), TID: 0},
		{Name: "T.A1", Ph: "X", TS: ms(5), Dur: ms(2), TID: 1},
		{Name: "T.A3", Ph: "X", TS: ms(7), Dur: ms(4), TID: 1},
		{Name: "T.A4", Ph: "X", TS: ms(11), Dur: ms(1), TID: 1},
		{Name: "T.A5", Ph: "X", TS: ms(14), Dur: ms(0.5), TID: 0},
		{Name: "mystery", Ph: "X", TS: 0, Dur: ms(1), TID: 9},
	}
	b := ComputeBreakdown(events)
	if b.Workers != 1 {
		t.Errorf("Workers = %d, want 1", b.Workers)
	}
	if b.Unknown != 1 {
		t.Errorf("Unknown = %d, want 1", b.Unknown)
	}
	if b.ComputeTime != 10*time.Millisecond {
		t.Errorf("ComputeTime = %v", b.ComputeTime)
	}
	if b.HiddenTime != 7*time.Millisecond {
		t.Errorf("HiddenTime = %v", b.HiddenTime)
	}
	if b.ExposedTime != 4*time.Millisecond {
		t.Errorf("ExposedTime = %v", b.ExposedTime)
	}
	if b.BlockedTime != 500*time.Microsecond {
		t.Errorf("BlockedTime = %v", b.BlockedTime)
	}
	if got, want := b.OverlapRatio(), 0.7; math.Abs(got-want) > 1e-9 {
		t.Errorf("OverlapRatio = %v, want %v", got, want)
	}
	// The sample trace exercises exactly the 7 Fig. 6 worker phases; the
	// server-side srv.* phases are absent.
	if len(b.Phases) != 7 {
		t.Errorf("Phases = %d entries, want 7", len(b.Phases))
	}
	for i, st := range b.Phases {
		if int(st.Phase) != i {
			t.Errorf("Phases not in order: %v at %d", st.Phase, i)
		}
		if st.Count != 1 || st.Mean() != st.Total {
			t.Errorf("phase %v stat %+v", st.Phase, st)
		}
	}
	// Empty compute -> ratio 0, not NaN.
	if r := (&Breakdown{}).OverlapRatio(); r != 0 {
		t.Errorf("empty OverlapRatio = %v", r)
	}
}
