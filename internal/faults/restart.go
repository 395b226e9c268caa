package faults

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"shmcaffe/internal/telemetry"
)

// Frontend is the serving plane a RestartableServer cycles: something that
// owns a listener on a fixed address and handles connections until closed.
// smb.Server satisfies it.
type Frontend interface {
	// Addr returns the bound listen address.
	Addr() string
	// Serve accepts and handles connections until Close; it always returns
	// a non-nil error afterwards.
	Serve() error
	// Close stops the listener, kills live connections, and waits for
	// handlers to drain.
	Close() error
}

// Factory builds a fresh frontend bound to addr. The factory closes over
// the persistent backend (for SMB: the segment Store), which is exactly
// what makes the crash model meaningful — the serving plane dies and
// returns, the data survives, clients must reconnect and re-attach.
type Factory func(addr string) (Frontend, error)

// RestartableServer models a server process that can crash and come back
// on the same address: Crash kills the frontend (every live connection
// breaks mid-operation), Restart rebinds the address with a fresh one.
// The backend the Factory closes over persists across cycles.
type RestartableServer struct {
	factory Factory

	mu       sync.Mutex
	cur      Frontend // guarded by mu; nil while crashed
	addr     string   // guarded by mu; sticky after first bind
	closed   bool     // guarded by mu
	dumpPath string   // guarded by mu; "" disables the crash-time dump
	crashes  atomic.Int64
}

// NewRestartableServer builds the first frontend on addr (use
// "127.0.0.1:0" for an ephemeral port — later restarts reuse the resolved
// address) and starts serving in a background goroutine.
func NewRestartableServer(addr string, factory Factory) (*RestartableServer, error) {
	r := &RestartableServer{factory: factory, addr: addr}
	if err := r.start(); err != nil {
		return nil, err
	}
	return r, nil
}

// start binds a fresh frontend; caller must not hold r.mu.
func (r *RestartableServer) start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("faults: restartable server closed")
	}
	if r.cur != nil {
		return nil
	}
	// Rebinding the just-released port can momentarily fail while the old
	// listener's close settles; retry briefly — a restarting process would
	// do the same.
	var (
		fe  Frontend
		err error
	)
	for attempt := 0; attempt < 50; attempt++ {
		fe, err = r.factory(r.addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("faults: rebind %s: %w", r.addr, err)
	}
	r.addr = fe.Addr() // resolve :0 once, then stick to the concrete port
	r.cur = fe
	if n := r.crashes.Load(); n > 0 {
		telemetry.RecordEvent(telemetry.EvChaosRestart, n, 0, 0)
	}
	go fe.Serve()
	return nil
}

// SetDumpPath enables a flight-recorder text dump to path on every Crash —
// the post-mortem record of what the process saw leading up to the outage.
func (r *RestartableServer) SetDumpPath(path string) {
	r.mu.Lock()
	r.dumpPath = path
	r.mu.Unlock()
}

// Addr returns the server's concrete address (stable across restarts).
func (r *RestartableServer) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addr
}

// Crashes returns how many times Crash has fired.
func (r *RestartableServer) Crashes() int64 { return r.crashes.Load() }

// Crash kills the frontend: the listener closes and every live connection
// breaks. The backend state is untouched. No-op while already down.
func (r *RestartableServer) Crash() error {
	r.mu.Lock()
	fe := r.cur
	r.cur = nil
	dump := r.dumpPath
	r.mu.Unlock()
	if fe == nil {
		return nil
	}
	telemetry.RecordEvent(telemetry.EvChaosCrash, r.crashes.Add(1), 0, 0)
	if dump != "" {
		// Best-effort: the dump is diagnostics, the crash semantics (every
		// live connection breaks) must proceed regardless.
		_ = telemetry.DumpEvents(dump)
	}
	return fe.Close()
}

// Restart brings a crashed server back on the same address. No-op while up.
func (r *RestartableServer) Restart() error { return r.start() }

// CrashFor crashes the server, keeps it down for d, then restarts it —
// the one-line outage used by tests and the smbserver chaos flag.
func (r *RestartableServer) CrashFor(d time.Duration) error {
	if err := r.Crash(); err != nil {
		return err
	}
	time.Sleep(d)
	return r.Restart()
}

// Close shuts the server down for good.
func (r *RestartableServer) Close() error {
	r.mu.Lock()
	fe := r.cur
	r.cur = nil
	r.closed = true
	r.mu.Unlock()
	if fe == nil {
		return nil
	}
	return fe.Close()
}
