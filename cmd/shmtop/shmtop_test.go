package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"shmcaffe/internal/telemetry"
)

// fakeNode serves a canned observability surface for scrape tests. metrics
// renders the exposition per /metrics request, so a wallclock gauge reads
// the clock at scrape time.
type fakeNode struct {
	metrics func() string
	healthy bool
	events  string
	trace   string
}

func (f *fakeNode) start(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, f.metrics())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !f.healthy {
			http.Error(w, "wedged", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok segments=1")
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, f.events)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, f.trace)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// hostport strips the http:// scheme from an httptest URL.
func hostport(u string) string { return strings.TrimPrefix(u, "http://") }

// serverMetrics returns a renderer of a minimal SMB-server exposition whose
// wallclock, read when the exposition is served, is skewed by skew relative
// to the test's own clock.
func serverMetrics(skew time.Duration) func() string {
	return func() string {
		return fmt.Sprintf(`# TYPE smb_segments gauge
smb_segments 2
# TYPE smb_server_connections gauge
smb_server_connections 3
# TYPE smb_server_conn_errors_total counter
smb_server_conn_errors_total 1
# TYPE smb_accumulates_total counter
smb_accumulates_total 120
# TYPE smb_accumulate_seconds histogram
smb_accumulate_seconds_bucket{le="0.001"} 60
smb_accumulate_seconds_bucket{le="0.01"} 118
smb_accumulate_seconds_bucket{le="+Inf"} 120
smb_accumulate_seconds_sum 0.5
smb_accumulate_seconds_count 120
# TYPE shm_wallclock_unix_nano gauge
shm_wallclock_unix_nano %g
`, float64(time.Now().Add(skew).UnixNano()))
	}
}

// workerMetrics renders a worker exposition, which has no wallclock gauge.
func workerMetrics() string {
	return `# TYPE seasgd_iterations_total counter
seasgd_iterations_total 200
# TYPE seasgd_pushes_total counter
seasgd_pushes_total 40
# TYPE smb_supervised_reconnects_total counter
smb_supervised_reconnects_total 2
`
}

const eventsJSON = `[
  {"time": "2026-08-08T00:00:00Z", "kind": "reconnect", "args": {"client": 1, "attempt": 1}},
  {"time": "2026-08-08T00:00:01Z", "kind": "chaos_crash", "args": {"crashes": 1}}
]`

// traceJSON renders a one-span trace export with a clock_epoch anchor.
func traceJSON(t *testing.T, epoch int64, events []telemetry.TraceEvent) string {
	t.Helper()
	all := append([]telemetry.TraceEvent{{
		Name: "clock_epoch", Ph: "M", PID: 1,
		Args: map[string]string{"unix_nano": fmt.Sprintf("%d", epoch)},
	}}, events...)
	var buf bytes.Buffer
	buf.WriteString(`{"traceEvents":`)
	if err := json.NewEncoder(&buf).Encode(all); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(`}`)
	return buf.String()
}

func TestParseNodes(t *testing.T) {
	specs, err := parseNodes("a:1, srv=b:2 ,c:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []nodeSpec{{"a:1", "a:1"}, {"srv", "b:2"}, {"c:3", "c:3"}}
	if len(specs) != len(want) {
		t.Fatalf("got %v", specs)
	}
	for i := range want {
		if specs[i] != want[i] {
			t.Errorf("spec[%d] = %v, want %v", i, specs[i], want[i])
		}
	}
	for _, bad := range []string{"", "=x:1", "name="} {
		if _, err := parseNodes(bad); err == nil {
			t.Errorf("parseNodes(%q) accepted", bad)
		}
	}
}

// TestScrapeServer: role detection, counters, histogram quantiles, the
// flight-recorder digest, and an offset estimate within RTT of the injected
// skew.
func TestScrapeServer(t *testing.T) {
	const skew = 3 * time.Second
	node := &fakeNode{metrics: serverMetrics(skew), healthy: true, events: eventsJSON}
	srv := node.start(t)

	st := newScraper(2 * time.Second).scrape(nodeSpec{Name: "srv", Addr: hostport(srv.URL)})
	if !st.Healthy || st.Err != "" {
		t.Fatalf("unhealthy: %+v", st)
	}
	if st.Role != "server" {
		t.Errorf("role %q", st.Role)
	}
	if st.Connections != 3 || st.ConnErrors != 1 || st.Accumulates != 120 {
		t.Errorf("counters %+v", st)
	}
	if !st.HasClock {
		t.Fatal("no clock offset")
	}
	// The estimate should land within (RTT + 1ms slack) of the real skew.
	err := time.Duration(st.ClockOffsetNano) - skew
	if lim := time.Duration(st.ScrapeRTTNano) + time.Millisecond; err < -lim || err > lim {
		t.Errorf("offset %v, want %v ± %v", time.Duration(st.ClockOffsetNano), skew, lim)
	}
	if st.AccP50 <= 0 || st.AccP50 > 0.001 {
		t.Errorf("p50 %v", st.AccP50)
	}
	if st.AccP99 < 0.001 || st.AccP99 > 0.01 {
		t.Errorf("p99 %v", st.AccP99)
	}
	if st.Events != 2 || st.LastEvent != "chaos_crash" {
		t.Errorf("events %d last %q", st.Events, st.LastEvent)
	}
}

func TestScrapeWorkerAndDown(t *testing.T) {
	node := &fakeNode{metrics: workerMetrics, healthy: true, events: "[]"}
	srv := node.start(t)
	s := newScraper(2 * time.Second)

	st := s.scrape(nodeSpec{Name: "w0", Addr: hostport(srv.URL)})
	if st.Role != "worker" {
		t.Errorf("role %q", st.Role)
	}
	if st.Iterations != 200 || st.Pushes != 40 || st.Reconnects != 2 {
		t.Errorf("counters %+v", st)
	}
	if st.HasClock {
		t.Error("worker without wallclock gauge reported a clock")
	}

	// A dead node stays visible as a DOWN row.
	down := s.scrape(nodeSpec{Name: "gone", Addr: "127.0.0.1:1"})
	if down.Healthy || down.Err == "" {
		t.Errorf("down node %+v", down)
	}
}

// TestSnapshotCrossNode: two fake nodes share a trace_id, the child span's
// parent_id pointing at the other process's span — collect() must count the
// cross-node chain, and the snapshot artifacts must carry it.
func TestSnapshotCrossNode(t *testing.T) {
	epoch := time.Now().Add(-time.Minute).UnixNano()
	worker := &fakeNode{metrics: workerMetrics, healthy: true, events: "[]",
		trace: traceJSON(t, epoch, []telemetry.TraceEvent{{
			Name: "T.A3", Ph: "X", TS: 100, Dur: 5000, PID: 1, TID: 0,
			Args: map[string]string{
				"trace_id": "00000000000000aa", "span_id": "00000000000000aa",
			},
		}})}
	server := &fakeNode{metrics: serverMetrics(0), healthy: true, events: eventsJSON,
		trace: traceJSON(t, epoch, []telemetry.TraceEvent{{
			Name: "srv.acc", Ph: "X", TS: 1200, Dur: 800, PID: 1, TID: 7,
			Args: map[string]string{
				"trace_id": "00000000000000aa", "span_id": "00000000000000bb",
				"parent_id": "00000000000000aa",
			},
		}})}
	ws, ss := worker.start(t), server.start(t)

	specs := []nodeSpec{
		{Name: "worker0", Addr: hostport(ws.URL)},
		{Name: "server", Addr: hostport(ss.URL)},
	}
	rep, _ := collect(newScraper(2*time.Second), specs)
	if rep.MergedSpans != 2 {
		t.Errorf("merged spans %d, want 2", rep.MergedSpans)
	}
	if rep.CrossNodeChains < 1 {
		t.Fatalf("cross-node chains %d, want ≥1", rep.CrossNodeChains)
	}

	// End-to-end through run(): snapshot JSON + merged trace file.
	dir := t.TempDir()
	snap := filepath.Join(dir, "fleet.json")
	traceOut := filepath.Join(dir, "fleet-trace.json")
	var out bytes.Buffer
	err := run([]string{
		"-nodes", fmt.Sprintf("worker0=%s,server=%s", hostport(ws.URL), hostport(ss.URL)),
		"-snapshot", snap, "-trace-out", traceOut,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var got report
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.CrossNodeChains < 1 {
		t.Errorf("snapshot cross_node_chains %d", got.CrossNodeChains)
	}
	if len(got.Nodes) != 2 || got.Nodes[1].Role != "server" {
		t.Errorf("snapshot nodes %+v", got.Nodes)
	}

	events, err := telemetry.LoadTraceFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if telemetry.CrossNodeChains(events) < 1 {
		t.Error("merged trace file lost the cross-node chain")
	}
	// Both processes named in the merged file.
	names := map[string]bool{}
	for _, ev := range events {
		if ev.Ph == "M" && ev.Name == "process_name" {
			names[ev.Args["name"]] = true
		}
	}
	if !names["worker0"] || !names["server"] {
		t.Errorf("process names %v", names)
	}
}

// TestMarkdownSnapshot: .md path selects the Markdown writer.
func TestMarkdownSnapshot(t *testing.T) {
	node := &fakeNode{metrics: serverMetrics(0), healthy: true, events: "[]"}
	srv := node.start(t)
	snap := filepath.Join(t.TempDir(), "fleet.md")
	var out bytes.Buffer
	err := run([]string{"-nodes", "srv=" + hostport(srv.URL), "-snapshot", snap}, &out)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	md := string(raw)
	for _, want := range []string{"# shmtop fleet snapshot", "| srv | server | up |", "cross-node chains"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

// TestLiveTable: one refresh renders every node row.
func TestLiveTable(t *testing.T) {
	server := &fakeNode{metrics: serverMetrics(0), healthy: true, events: eventsJSON}
	worker := &fakeNode{metrics: workerMetrics, healthy: false, events: "[]"}
	ss, ws := server.start(t), worker.start(t)

	var out bytes.Buffer
	err := run([]string{
		"-nodes", fmt.Sprintf("srv=%s,w0=%s", hostport(ss.URL), hostport(ws.URL)),
		"-count", "1", "-interval", "1ms",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"NODE", "srv", "w0", "server", "worker", "DOWN", "chaos_crash"} {
		if !strings.Contains(text, want) {
			t.Errorf("table missing %q:\n%s", want, text)
		}
	}
}
