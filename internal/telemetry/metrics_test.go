package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ops_total", "ops")
	g := reg.Gauge("depth", "queue depth")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g.Set(2.5)
	g.Add(-0.5)
	if g.Value() != 2 {
		t.Fatalf("gauge = %v, want 2", g.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("reset counter = %d", c.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 556.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// Cumulative: ≤1: {0.5, 1} = 2; ≤10: +{5} = 3; ≤100: +{50} = 4; +Inf: 5.
	want := []int64{2, 3, 4, 5}
	got := h.Snapshot()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cumulative buckets = %v, want %v", got, want)
		}
	}
}

// TestHistogramConcurrent checks counter/histogram correctness under
// concurrent writers; tier 2 runs this package with -race.
func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "latency", ExpBuckets(1, 2, 10))
	c := reg.Counter("n", "n")
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(w%4) + 1)
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*perWorker {
		t.Fatalf("count = %d, want %d", h.Count(), workers*perWorker)
	}
	if c.Value() != workers*perWorker {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	// Sum is exact: every observation is a small integer, and float64 adds
	// of integers this small are associative.
	wantSum := float64(perWorker) * (1 + 2 + 3 + 4) * float64(workers) / 4
	if h.Sum() != wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
	snap := h.Snapshot()
	if snap[len(snap)-1] != workers*perWorker {
		t.Fatalf("+Inf cumulative = %d, want %d", snap[len(snap)-1], workers*perWorker)
	}
}

// TestRecordingZeroAlloc pins the hot-path contract: counters, gauges,
// histograms and span Begin/End allocate nothing per record.
func TestRecordingZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c", "c")
	g := reg.Gauge("g", "g")
	h := reg.Histogram("h", "h", DefLatencyBuckets)
	tr := NewTrainer(reg, 1024)

	if n := testing.AllocsPerRun(200, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %.1f per op", n)
	}
	if n := testing.AllocsPerRun(200, func() { g.Add(1) }); n != 0 {
		t.Errorf("Gauge.Add allocates %.1f per op", n)
	}
	if n := testing.AllocsPerRun(200, func() { h.Observe(1e-4) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f per op", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		sp := tr.Begin(MainTID(0), PhaseT1)
		sp.End()
	}); n != 0 {
		t.Errorf("Trainer span Begin/End allocates %.1f per op", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		tr.ObserveStaleness(3)
		tr.IncPush()
	}); n != 0 {
		t.Errorf("Trainer staleness/push record allocates %.1f per op", n)
	}
	// Disabled telemetry must also be free.
	var off *Trainer
	if n := testing.AllocsPerRun(200, func() {
		sp := off.Begin(0, PhaseT45)
		sp.End()
		off.ObserveStaleness(1)
	}); n != 0 {
		t.Errorf("nil Trainer allocates %.1f per op", n)
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("smb_reads_total", "reads")
	c.Add(7)
	reg.GaugeFunc("up", "always 1", func() float64 { return 1 })
	h := reg.Histogram("rtt_seconds{op=\"read\"}", "rtt", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(2)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP smb_reads_total reads\n",
		"# TYPE smb_reads_total counter\n",
		"smb_reads_total 7\n",
		"# TYPE up gauge\n",
		"up 1\n",
		"# TYPE rtt_seconds histogram\n",
		`rtt_seconds_bucket{op="read",le="0.5"} 1` + "\n",
		`rtt_seconds_bucket{op="read",le="1"} 1` + "\n",
		`rtt_seconds_bucket{op="read",le="+Inf"} 2` + "\n",
		`rtt_seconds_sum{op="read"} 2.25` + "\n",
		`rtt_seconds_count{op="read"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\ngot:\n%s", want, out)
		}
	}
}

// TestEveryMetricKindExposes: each metric kind, kindCounter through
// kindHistogram, has a constructor and an exposition arm. The sample switch
// has no default, so a kind without an arm would register and then render
// no sample at all.
func TestEveryMetricKindExposes(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "c")
	reg.CounterFunc("cf_total", "cf", func() int64 { return 1 })
	reg.FloatCounterFunc("fcf_seconds_total", "fcf", func() float64 { return 1.5 })
	reg.Gauge("g", "g")
	reg.GaugeFunc("gf", "gf", func() float64 { return 1 })
	reg.Histogram("h_seconds", "h", []float64{1})
	base := make(map[metricKind]string)
	for _, m := range reg.metrics {
		base[m.kind] = m.base
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for k := kindCounter; k <= kindHistogram; k++ {
		name, ok := base[k]
		if !ok {
			t.Fatalf("metric kind %d has no constructor", k)
		}
		if !strings.Contains(out, "\n"+name+" ") && !strings.Contains(out, "\n"+name+"_count ") {
			t.Errorf("metric kind %d (%s) renders no sample:\n%s", k, name, out)
		}
	}
}

// TestPhaseSeriesShareFamily: the per-phase histograms must render under
// one HELP/TYPE header (same family, different label sets).
func TestPhaseSeriesShareFamily(t *testing.T) {
	reg := NewRegistry()
	tr := NewTrainer(reg, 64)
	sp := tr.Begin(MainTID(0), PhaseT1)
	sp.End()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if got := strings.Count(out, "# TYPE seasgd_phase_seconds histogram"); got != 1 {
		t.Fatalf("TYPE header appears %d times, want 1\n%s", got, out)
	}
	for _, phase := range []string{"T1", "T2", "T4+T5", "T.A1", "T.A5"} {
		if !strings.Contains(out, `seasgd_phase_seconds_count{phase="`+phase+`"}`) {
			t.Errorf("missing phase series %q", phase)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.Counter("x", "again")
}
