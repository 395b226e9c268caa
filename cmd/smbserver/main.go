// Command smbserver runs a standalone Soft Memory Box server — the
// dedicated memory server of the paper's testbed. Distributed training
// processes (cmd/shmtrain with -smb, or library users dialing smb.Dial)
// allocate and share remote segments through it.
//
// Usage:
//
//	smbserver -addr 0.0.0.0:7700
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"shmcaffe/internal/faults"
	"shmcaffe/internal/rds"
	"shmcaffe/internal/smb"
	"shmcaffe/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "smbserver:", err)
		// Fatal exit: leave the flight recorder on disk for the post-mortem.
		if path := eventDumpPath(); telemetry.DumpEvents(path) == nil {
			fmt.Fprintln(os.Stderr, "smbserver: flight recorder dump:", path)
		}
		os.Exit(1)
	}
}

// eventDumpPath names this process's flight-recorder dump file.
func eventDumpPath() string {
	return filepath.Join(os.TempDir(), fmt.Sprintf("smbserver-%d-events.txt", os.Getpid()))
}

func run() error {
	var (
		addr     = flag.String("addr", "127.0.0.1:7700", "TCP listen address")
		rdsAddr  = flag.String("rds", "", "additionally serve the RDS datagram transport on this UDP address")
		shmPath  = flag.String("shm", "", "offer the zero-copy shared-memory transport on this unix control socket (co-located clients only)")
		httpAddr = flag.String("http", "", "serve Prometheus metrics on this HTTP address (GET /metrics; JSON at /metrics.json; liveness at /healthz; pprof at /debug/pprof/)")
		statsSec = flag.Int("stats", 10, "seconds between traffic stat lines (0 disables)")

		chaosDrop    = flag.Float64("chaos-drop", 0, "chaos: per-op probability an accepted connection's read/write is killed")
		chaosSeed    = flag.Uint64("chaos-seed", 1, "chaos: fault-injection seed")
		chaosRestart = flag.Duration("chaos-restart-after", 0, "chaos: crash and restart the serving plane once, this long after startup (0 = never)")
		chaosDown    = flag.Duration("chaos-down", 500*time.Millisecond, "chaos: how long the server stays down during the restart")
	)
	flag.Parse()

	store := smb.NewStore()
	logf := func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}

	if *chaosDrop > 0 || *chaosRestart > 0 {
		if *shmPath != "" {
			// The shm control socket hands out memfd mappings that bypass the
			// restartable serving plane entirely — crashing the frontend would
			// not interrupt mapped traffic, which defeats the drill.
			return fmt.Errorf("chaos mode does not support -shm")
		}
		return runChaos(store, *addr, *httpAddr, *rdsAddr, chaosOpts{
			drop: *chaosDrop, seed: *chaosSeed,
			restartAfter: *chaosRestart, down: *chaosDown,
		}, logf)
	}

	srv, err := smb.NewServer(store, *addr)
	if err != nil {
		return err
	}
	srv.SetLogf(logf)
	// Server-side spans (srv.dispatch, srv.acc) record
	// into this ring and export on the metrics endpoint's /debug/trace;
	// trace-negotiating clients get their contexts propagated into it.
	tracer := telemetry.NewTracer(1 << 16)
	srv.SetTracer(tracer)
	fmt.Printf("SMB server listening on tcp %s\n", srv.Addr())

	if *shmPath != "" {
		// Offer the zero-copy path: new segments get memfd backing, the unix
		// control socket carries the fd-pass handshake, and the TCP endpoint
		// advertises the socket so "auto" clients can negotiate it.
		if err := store.EnableShm(); err != nil {
			srv.Close()
			return fmt.Errorf("-shm: %w", err)
		}
		_ = os.Remove(*shmPath) // stale socket from a previous run
		uln, err := net.Listen("unix", *shmPath)
		if err != nil {
			srv.Close()
			return err
		}
		defer os.Remove(*shmPath)
		defer uln.Close()
		srv.SetShmAddr(*shmPath)
		fmt.Printf("SMB server shm control socket on unix %s\n", *shmPath)
		go func() { //lint:ignore goleak accept loop exits when the deferred uln.Close runs at shutdown
			for {
				conn, err := uln.Accept()
				if err != nil {
					return
				}
				go srv.ServeConn(conn)
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	if *rdsAddr != "" {
		ep, err := rds.ListenUDP(*rdsAddr)
		if err != nil {
			srv.Close()
			return err
		}
		// Join the accept loop on shutdown: Wait is registered before
		// Close so the deferred Close unblocks Accept first.
		var rdsWG sync.WaitGroup
		defer rdsWG.Wait()
		defer ep.Close()
		fmt.Printf("SMB server listening on rds/udp %s\n", ep.Addr())
		rdsWG.Add(1)
		go func() {
			defer rdsWG.Done()
			for {
				conn, err := ep.Accept()
				if err != nil {
					return
				}
				go srv.ServeConn(conn)
			}
		}()
	}

	var ticker *time.Ticker
	var tick <-chan time.Time
	if *statsSec > 0 {
		ticker = time.NewTicker(time.Duration(*statsSec) * time.Second)
		tick = ticker.C
		defer ticker.Stop()
	}

	if *httpAddr != "" {
		httpSrv, err := startMetricsHTTP(store, srv, tracer, *httpAddr)
		if err != nil {
			srv.Close()
			return err
		}
		defer httpSrv.Close()
		fmt.Printf("SMB metrics on http://%s/metrics\n", httpSrv.Addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case <-sig:
			fmt.Println("\nshutting down")
			return srv.Close()
		case err := <-serveErr:
			if err == net.ErrClosed {
				return nil
			}
			return err
		case <-tick:
			s := store.Stats()
			fmt.Printf("segments: creates=%d attaches=%d | ops: reads=%d writes=%d accumulates=%d | bytes: read=%d written=%d\n",
				s.Creates, s.Attaches, s.Reads, s.Writes, s.Accumulates, s.BytesRead, s.BytesWrite)
		}
	}
}

// chaosOpts parameterizes the fault-injecting server mode.
type chaosOpts struct {
	drop         float64
	seed         uint64
	restartAfter time.Duration
	down         time.Duration
}

// runChaos serves the store behind the fault-injection toolkit: accepted
// connections get the seeded drop mix, and the whole serving plane can be
// crashed and rebound once mid-run. The Store persists across the cycle —
// this is the process-level drill for the supervised client's reconnect
// path (scripts/check.sh "fault_smoke"). -rds is not supported here: the
// datagram endpoint has no restartable listener seam.
func runChaos(store *smb.Store, addr, httpAddr, rdsAddr string, o chaosOpts, logf func(string, ...any)) error {
	if rdsAddr != "" {
		return fmt.Errorf("chaos mode does not support -rds")
	}
	var inj *faults.Injector
	if o.drop > 0 {
		inj = faults.New(faults.Config{DropRate: o.drop, Seed: o.seed})
	}
	// One tracer outlives the crash/restart cycles — every frontend
	// incarnation records into the same ring, so the merged fleet trace
	// shows spans on both sides of the outage.
	tracer := telemetry.NewTracer(1 << 16)
	factory := func(a string) (faults.Frontend, error) {
		ln, err := net.Listen("tcp", a)
		if err != nil {
			return nil, err
		}
		var accept net.Listener = ln
		if inj != nil {
			accept = inj.WrapListener(ln)
		}
		fe := smb.NewServerFromListener(store, accept)
		fe.SetLogf(logf)
		fe.SetTracer(tracer)
		return fe, nil
	}
	rs, err := faults.NewRestartableServer(addr, factory)
	if err != nil {
		return err
	}
	// Every chaos crash snapshots the flight recorder — the readable
	// post-mortem of what led up to the outage (injected faults included).
	rs.SetDumpPath(eventDumpPath())
	fmt.Printf("SMB server (chaos: drop=%.2f restart-after=%s) listening on tcp %s\n",
		o.drop, o.restartAfter, rs.Addr())
	fmt.Printf("chaos: flight recorder dumps to %s on crash\n", eventDumpPath())

	if httpAddr != "" {
		// No Server handle: the frontend is recreated on restart, so only
		// the store-level families stay truthful.
		httpSrv, err := startMetricsHTTP(store, nil, tracer, httpAddr)
		if err != nil {
			rs.Close()
			return err
		}
		defer httpSrv.Close()
		fmt.Printf("SMB metrics on http://%s/metrics\n", httpSrv.Addr)
	}

	if o.restartAfter > 0 {
		timer := time.AfterFunc(o.restartAfter, func() {
			fmt.Printf("chaos: crashing serving plane for %s\n", o.down)
			if err := rs.CrashFor(o.down); err != nil {
				fmt.Println("chaos: restart failed:", err)
				return
			}
			fmt.Println("chaos: serving plane restarted")
		})
		defer timer.Stop()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nshutting down")
	return rs.Close()
}
