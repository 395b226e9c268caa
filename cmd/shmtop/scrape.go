package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"shmcaffe/internal/telemetry"
)

// nodeSpec is one -nodes entry: a metrics address with an optional display
// name ("name=host:port").
type nodeSpec struct {
	Name string
	Addr string
}

// parseNodes splits the comma-separated -nodes value into specs.
func parseNodes(list string) ([]nodeSpec, error) {
	var out []nodeSpec
	for _, raw := range strings.Split(list, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		spec := nodeSpec{Name: raw, Addr: raw}
		if i := strings.IndexByte(raw, '='); i >= 0 {
			spec.Name, spec.Addr = raw[:i], raw[i+1:]
			if spec.Name == "" || spec.Addr == "" {
				return nil, fmt.Errorf("malformed node %q (want name=host:port)", raw)
			}
		}
		out = append(out, spec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no nodes given")
	}
	return out, nil
}

// nodeStatus is one node's scraped state — the row of the shmtop table and
// the per-node record of the snapshot report.
type nodeStatus struct {
	Name    string `json:"name"`
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
	Err     string `json:"error,omitempty"`
	// Role classifies the process by the metric families it exports:
	// "server" (smb store families) or "worker" (seasgd families);
	// "unknown" when neither is present.
	Role string `json:"role"`

	// ClockOffsetNano estimates the node's wall clock minus the
	// aggregator's, sampled as reported shm_wallclock_unix_nano minus the
	// scrape midpoint. HasClock is false when the node predates the gauge
	// (offset then defaults to zero — its spans merge unshifted).
	ClockOffsetNano int64 `json:"clock_offset_nano"`
	HasClock        bool  `json:"has_clock"`
	ScrapeRTTNano   int64 `json:"scrape_rtt_nano"`

	Connections int64 `json:"connections"`
	ConnErrors  int64 `json:"conn_errors"`
	Accumulates int64 `json:"accumulates"`
	Iterations  int64 `json:"iterations"`
	Pushes      int64 `json:"pushes"`
	Reconnects  int64 `json:"reconnects"`

	// AccP50/AccP99 are the server-side accumulate latency quantiles in
	// seconds (NaN-free: zero when the histogram is absent or empty).
	AccP50 float64 `json:"acc_p50_seconds"`
	AccP99 float64 `json:"acc_p99_seconds"`

	// Flight-recorder digest from /debug/events.
	Events    int    `json:"events"`
	LastEvent string `json:"last_event,omitempty"`
}

// scraper fetches node state over HTTP.
type scraper struct {
	client *http.Client
	now    func() time.Time
}

func newScraper(timeout time.Duration) *scraper {
	return &scraper{client: &http.Client{Timeout: timeout}, now: time.Now}
}

// get fetches one path from addr, returning the body.
func (s *scraper) get(addr, path string) ([]byte, error) {
	resp, err := s.client.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s%s: status %d", addr, path, resp.StatusCode)
	}
	return body, nil
}

// scrape collects one node's status. A failed metrics fetch marks the node
// unhealthy but still returns a row — a down node must stay visible.
func (s *scraper) scrape(spec nodeSpec) nodeStatus {
	st := nodeStatus{Name: spec.Name, Addr: spec.Addr, Role: "unknown"}

	t0 := s.now()
	body, err := s.get(spec.Addr, "/metrics")
	t1 := s.now()
	if err != nil {
		st.Err = err.Error()
		return st
	}
	st.ScrapeRTTNano = t1.Sub(t0).Nanoseconds()
	samples, err := telemetry.ParsePrometheus(strings.NewReader(string(body)))
	if err != nil {
		st.Err = err.Error()
		return st
	}

	// NTP-style one-shot offset estimate: the remote gauge was rendered
	// somewhere inside [t0, t1]; the midpoint is the minimum-error guess,
	// so |error| ≤ RTT/2 plus the gauge's float64 granularity (~256ns).
	if wall, ok := telemetry.SampleValue(samples, "shm_wallclock_unix_nano", nil); ok {
		mid := t0.UnixNano() + st.ScrapeRTTNano/2
		st.ClockOffsetNano = int64(wall) - mid
		st.HasClock = true
	}

	counter := func(name string) int64 {
		v, _ := telemetry.SampleValue(samples, name, nil)
		return int64(v)
	}
	if _, ok := telemetry.SampleValue(samples, "smb_segments", nil); ok {
		st.Role = "server"
	} else if _, ok := telemetry.SampleValue(samples, "seasgd_iterations_total", nil); ok {
		st.Role = "worker"
	}
	st.Connections = counter("smb_server_connections")
	st.ConnErrors = counter("smb_server_conn_errors_total")
	st.Accumulates = counter("smb_accumulates_total")
	st.Iterations = counter("seasgd_iterations_total")
	st.Pushes = counter("seasgd_pushes_total")
	st.Reconnects = counter("smb_supervised_reconnects_total")
	if h, ok := telemetry.ExtractHistogram(samples, "smb_accumulate_seconds", nil); ok {
		st.AccP50 = finite(h.Quantile(0.50))
		st.AccP99 = finite(h.Quantile(0.99))
	}

	// Liveness probe: the server answering /healthz proves its backend is
	// not wedged, not just that HTTP is up.
	if _, err := s.get(spec.Addr, "/healthz"); err == nil {
		st.Healthy = true
	} else {
		st.Err = err.Error()
	}

	// Flight-recorder digest (best-effort: older nodes lack the endpoint).
	if evs, err := s.events(spec.Addr); err == nil {
		st.Events = len(evs)
		if n := len(evs); n > 0 {
			st.LastEvent = evs[n-1].Kind
		}
	}
	return st
}

// scrapedEvent is the /debug/events wire form shmtop consumes.
type scrapedEvent struct {
	Time string           `json:"time"`
	Kind string           `json:"kind"`
	Args map[string]int64 `json:"args,omitempty"`
}

// events fetches and decodes a node's flight recorder.
func (s *scraper) events(addr string) ([]scrapedEvent, error) {
	body, err := s.get(addr, "/debug/events")
	if err != nil {
		return nil, err
	}
	return decodeEvents(body)
}

// trace fetches and parses a node's Chrome trace export.
func (s *scraper) trace(addr string) ([]telemetry.TraceEvent, error) {
	body, err := s.get(addr, "/debug/trace")
	if err != nil {
		return nil, err
	}
	return telemetry.ParseChromeTrace(body)
}

// finite maps NaN/Inf (empty histogram) to zero for display and JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
