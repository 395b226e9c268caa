package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"time"

	"shmcaffe/internal/telemetry"
)

// promContentType is the Prometheus text exposition format version the
// registry writes.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// telemetrySink bundles the run's observability surface: the metric
// registry and phase tracer handed to the training platform, the HTTP
// server exposing /metrics and pprof, and the trace file written at exit.
type telemetrySink struct {
	Trainer  *telemetry.Trainer
	reg      *telemetry.Registry
	srv      *http.Server
	addr     string
	traceOut string
	linger   time.Duration
	out      io.Writer
}

// startTelemetry wires up the observability surface. Either argument being
// set enables collection; httpAddr == "" skips the HTTP server and
// traceOut == "" skips the trace file. Returns nil (a no-op sink — the
// telemetry package's nil receivers record nothing) when both are empty.
func startTelemetry(out io.Writer, httpAddr, traceOut string, linger time.Duration) (*telemetrySink, error) {
	if httpAddr == "" && traceOut == "" {
		return nil, nil
	}
	reg := telemetry.NewRegistry()
	// The fleet aggregator (shmtop) estimates this node's clock offset as
	// reported wallclock minus the scrape midpoint.
	reg.GaugeFunc("shm_wallclock_unix_nano",
		"this process's wall clock at scrape time (UnixNano)",
		func() float64 { return float64(time.Now().UnixNano()) })
	s := &telemetrySink{
		Trainer:  telemetry.NewTrainer(reg, 0),
		reg:      reg,
		traceOut: traceOut,
		linger:   linger,
		out:      out,
	}
	if httpAddr == "" {
		return s, nil
	}
	ln, err := net.Listen("tcp", httpAddr)
	if err != nil {
		return nil, fmt.Errorf("telemetry listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", promContentType)
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = telemetry.FlightRecorder().WriteJSON(w)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = s.Trainer.Tracer.WriteChromeTrace(w)
	})
	// The standard pprof handlers; Index serves the /debug/pprof/<profile>
	// family (heap, goroutine, block, mutex, ...) itself.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.addr = ln.Addr().String()
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //lint:ignore goleak joined by srv.Close in finish
	fmt.Fprintf(out, "telemetry listening on http://%s (metrics at /metrics, flight recorder at /debug/events, trace at /debug/trace, pprof at /debug/pprof/)\n", s.addr)
	return s, nil
}

// flightDumpPath names the per-process flight-recorder dump file.
func flightDumpPath(prefix string) string {
	return filepath.Join(os.TempDir(), fmt.Sprintf("%s-%d-events.txt", prefix, os.Getpid()))
}

// dumpFlightRecorder writes the process-global flight recorder to the
// per-process dump file and returns its path.
func dumpFlightRecorder(prefix string) (string, error) {
	path := flightDumpPath(prefix)
	if err := telemetry.DumpEvents(path); err != nil {
		return "", err
	}
	return path, nil
}

// trainer returns the phase trainer to hand to the platform; nil-safe.
func (s *telemetrySink) trainer() *telemetry.Trainer {
	if s == nil {
		return nil
	}
	return s.Trainer
}

// registry returns the metric registry for data-path instruments; nil-safe.
func (s *telemetrySink) registry() *telemetry.Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// finish writes the trace file, keeps the scrape endpoint up for the linger
// window, and shuts the server down. Call after training completes.
func (s *telemetrySink) finish() error {
	if s == nil {
		return nil
	}
	if s.traceOut != "" {
		if err := s.Trainer.Tracer.WriteChromeTraceFile(s.traceOut); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(s.out, "trace written to %s (%d spans, %d dropped)\n",
			s.traceOut, s.Trainer.Tracer.Len(), s.Trainer.Tracer.Dropped())
	}
	if s.srv != nil {
		if s.linger > 0 {
			fmt.Fprintf(s.out, "telemetry lingering %s for a final scrape\n", s.linger)
			time.Sleep(s.linger)
		}
		return s.srv.Close()
	}
	return nil
}
