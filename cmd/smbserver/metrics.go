package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"shmcaffe/internal/smb"
	"shmcaffe/internal/telemetry"
)

// promContentType is the Prometheus text exposition format version the
// registry writes.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// metricsServer serves the SMB traffic counters — Prometheus text on
// /metrics (the scrape endpoint a deployed memory server registers with its
// monitoring), the legacy JSON payload on /metrics.json, and a liveness
// probe on /healthz.
type metricsServer struct {
	// Addr is the bound address (useful with port 0).
	Addr string
	srv  *http.Server
	ln   net.Listener
}

// metricsPayload is the JSON metrics response body, kept for pre-Prometheus
// consumers.
type metricsPayload struct {
	Creates     int64 `json:"creates"`
	Attaches    int64 `json:"attaches"`
	Reads       int64 `json:"reads"`
	Writes      int64 `json:"writes"`
	Accumulates int64 `json:"accumulates"`
	BytesRead   int64 `json:"bytesRead"`
	BytesWrite  int64 `json:"bytesWritten"`
}

// wantsJSON reports whether the request's Accept header prefers JSON over
// the text exposition (compat switch for pre-Prometheus consumers that
// scrape /metrics directly).
func wantsJSON(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "application/json")
}

// startMetricsHTTP binds addr and serves the store's operational surface.
// It installs the latency histograms on the store, so servers running with
// -http also export smb_*_seconds distributions. A non-nil srv additionally
// exports the connection-health counters (handler errors, live
// connections); chaos mode passes nil because the frontend — and its
// counters — is recreated on every restart. A non-nil tracer is exported as
// a Chrome trace on /debug/trace (the server-side spans a fleet aggregator
// merges with the workers' traces); the flight recorder is always on
// /debug/events.
func startMetricsHTTP(store *smb.Store, srv *smb.Server, tracer *telemetry.Tracer, addr string) (*metricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	store.Instrument(reg)
	if srv != nil {
		srv.Instrument(reg)
	}
	// Clock-offset sample for fleet aggregation (see shmtop): offset ≈
	// reported wallclock − scrape midpoint.
	reg.GaugeFunc("shm_wallclock_unix_nano",
		"this process's wall clock at scrape time (UnixNano)",
		func() float64 { return float64(time.Now().UnixNano()) })

	writeJSON := func(w http.ResponseWriter) {
		s := store.Stats()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(metricsPayload{
			Creates:     s.Creates,
			Attaches:    s.Attaches,
			Reads:       s.Reads,
			Writes:      s.Writes,
			Accumulates: s.Accumulates,
			BytesRead:   s.BytesRead,
			BytesWrite:  s.BytesWrite,
		})
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if wantsJSON(r) {
			writeJSON(w)
			return
		}
		w.Header().Set("Content-Type", promContentType)
		if err := reg.WritePrometheus(w); err != nil {
			// Headers are gone; the scraper sees a short body and retries.
			return
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		// SegmentCount takes the store lock: answering proves the store is
		// not wedged, not just that the HTTP goroutine is alive.
		n := store.SegmentCount()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ok segments=%d\n", n)
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = telemetry.FlightRecorder().WriteJSON(w)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = tracer.WriteChromeTrace(w)
	})

	ms := &metricsServer{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: mux},
		ln:   ln,
	}
	go ms.srv.Serve(ln)
	return ms, nil
}

// Close stops the HTTP server.
func (m *metricsServer) Close() error { return m.srv.Close() }
