package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"shmcaffe/internal/smb"
	"shmcaffe/internal/telemetry"
)

// traffic generates one create/attach/write/read against store.
func traffic(t *testing.T, store *smb.Store) {
	t.Helper()
	key, err := store.Create("seg", 16)
	if err != nil {
		t.Fatal(err)
	}
	h, err := store.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Write(h, 0, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if err := store.Read(h, 0, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsPrometheus(t *testing.T) {
	store := smb.NewStore()
	ms, err := startMetricsHTTP(store, nil, nil, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	traffic(t, store)

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", ms.Addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != promContentType {
		t.Fatalf("Content-Type %q, want %q", ct, promContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE smb_reads_total counter",
		"smb_reads_total 1",
		"smb_writes_total 1",
		"smb_creates_total 1",
		"smb_segments 1",
		"smb_read_seconds_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricsJSONCompat: the legacy JSON payload stays reachable both via
// the dedicated path and via content negotiation on /metrics.
func TestMetricsJSONCompat(t *testing.T) {
	store := smb.NewStore()
	ms, err := startMetricsHTTP(store, nil, nil, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	traffic(t, store)

	check := func(resp *http.Response) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
		var payload metricsPayload
		if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
			t.Fatal(err)
		}
		if payload.Creates != 1 || payload.Writes != 1 || payload.Reads != 1 {
			t.Fatalf("payload %+v", payload)
		}
		if payload.BytesRead != 16 || payload.BytesWrite != 16 {
			t.Fatalf("byte counters %+v", payload)
		}
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics.json", ms.Addr))
	if err != nil {
		t.Fatal(err)
	}
	check(resp)

	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("http://%s/metrics", ms.Addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	check(resp)

	// Non-GET rejected.
	post, err := http.Post(fmt.Sprintf("http://%s/metrics", ms.Addr), "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d", post.StatusCode)
	}
}

// TestMetricsServerCounters: a non-nil server adds the connection-health
// families to the exposition.
func TestMetricsServerCounters(t *testing.T) {
	store := smb.NewStore()
	srv, err := smb.NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	ms, err := startMetricsHTTP(store, srv, nil, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", ms.Addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"smb_server_conn_errors_total",
		"smb_server_connections",
		"smb_seq_duplicates_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestDebugEndpoints: the observability surface exposes the flight recorder
// as JSON, the server tracer as a loadable Chrome trace, and the wallclock
// gauge shmtop uses for clock-offset estimation.
func TestDebugEndpoints(t *testing.T) {
	store := smb.NewStore()
	tracer := telemetry.NewTracer(256)
	tracer.Begin(1, telemetry.PhaseSrvDispatch).End()
	telemetry.RecordEvent(telemetry.EvConnError, 7, 0, 0)
	ms, err := startMetricsHTTP(store, nil, tracer, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", ms.Addr, path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var events []map[string]any
	if err := json.Unmarshal(get("/debug/events"), &events); err != nil {
		t.Fatalf("/debug/events not a JSON array: %v", err)
	}
	found := false
	for _, ev := range events {
		if ev["kind"] == "conn_error" {
			found = true
		}
	}
	if !found {
		t.Errorf("/debug/events missing the recorded conn_error (got %d events)", len(events))
	}

	trace, err := telemetry.ParseChromeTrace(get("/debug/trace"))
	if err != nil {
		t.Fatalf("/debug/trace not a Chrome trace: %v", err)
	}
	if telemetry.TraceEpochUnixNano(trace) == 0 {
		t.Error("/debug/trace missing clock_epoch metadata")
	}
	spans := 0
	for _, ev := range trace {
		if ev.Ph == "X" && ev.Name == "srv.dispatch" {
			spans++
		}
	}
	if spans != 1 {
		t.Errorf("/debug/trace has %d srv.dispatch spans, want 1", spans)
	}

	if !strings.Contains(string(get("/metrics")), "shm_wallclock_unix_nano") {
		t.Error("exposition missing shm_wallclock_unix_nano")
	}
}

func TestHealthz(t *testing.T) {
	store := smb.NewStore()
	ms, err := startMetricsHTTP(store, nil, nil, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if _, err := store.Create("seg", 16); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", ms.Addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(body); got != "ok segments=1\n" {
		t.Fatalf("healthz body %q", got)
	}
}
