package smb

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"shmcaffe/internal/rds"
	"shmcaffe/internal/telemetry"
)

// Pluggable transports (DESIGN.md §16): the frame protocol over TCP or over
// the RDS-like datagram transport and the cross-process shared-memory path
// are peers behind one dial registry ("tcp" and "tcp_sg" name the same
// supervised TCP dialer). A transport turns DialOptions into a Client;
// everything above (platform wiring, shmtrain) selects by name and never
// sees the difference.

// DialOptions is the transport-independent dial configuration.
type DialOptions struct {
	// Addr is the server's TCP address. The shm transport also starts
	// here: it queries the TCP endpoint for the advertised unix socket.
	Addr string
	// OpTimeout bounds each operation (0 = transport default).
	OpTimeout time.Duration
	// ClientID keys push dedup (0 = auto; multi-process jobs set rank+1).
	ClientID uint64
	// Seed drives retry jitter where the transport supervises reconnects.
	Seed uint64
	// Metrics, when set, receives the dialed client's own counters. Metric
	// names are per-registry unique: hand one registry to one client.
	Metrics *telemetry.Registry
	// Trace asks the client to negotiate wire-level trace propagation, so
	// contexts set with SetTraceContext reach a tracing server.
	Trace bool
}

// TransportDialer dials one transport.
type TransportDialer func(DialOptions) (Client, error)

var transportReg = struct {
	sync.Mutex
	m map[string]TransportDialer
}{m: make(map[string]TransportDialer)}

// RegisterTransport installs (or replaces) a named transport dialer.
func RegisterTransport(name string, d TransportDialer) {
	transportReg.Lock()
	transportReg.m[name] = d
	transportReg.Unlock()
}

// DialTransport dials the named transport.
func DialTransport(name string, opts DialOptions) (Client, error) {
	transportReg.Lock()
	d := transportReg.m[name]
	transportReg.Unlock()
	if d == nil {
		return nil, fmt.Errorf("smb: unknown transport %q (have %v)", name, TransportNames())
	}
	return d(opts)
}

// TransportNames lists the registered transports, sorted.
func TransportNames() []string {
	transportReg.Lock()
	names := make([]string, 0, len(transportReg.m))
	for n := range transportReg.m {
		names = append(names, n)
	}
	transportReg.Unlock()
	sort.Strings(names)
	return names
}

// supervisedConfig carries opts into a supervised session's configuration.
func supervisedConfig(opts DialOptions) SupervisedConfig {
	return SupervisedConfig{
		Addr:      opts.Addr,
		OpTimeout: opts.OpTimeout,
		Seed:      opts.Seed,
		ClientID:  opts.ClientID,
		Metrics:   opts.Metrics,
		Trace:     opts.Trace,
	}
}

func dialSupervised(opts DialOptions) (Client, error) {
	return NewSupervisedClient(supervisedConfig(opts)), nil
}

// dialRDS is the supervised session over the RDS-like reliable datagram
// transport (internal/rds; the server side is smbserver -rds). Every
// (re)connection dials from a private UDP endpoint that dies with it, so
// the session redials like any other.
func dialRDS(opts DialOptions) (Client, error) {
	cfg := supervisedConfig(opts)
	cfg.Dial = func(addr string) (*StreamClient, error) {
		ep, err := rds.ListenUDP("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("smb rds listen: %w: %w", ErrTransport, err)
		}
		conn, err := ep.Dial(addr)
		if err != nil {
			ep.Close()
			return nil, fmt.Errorf("smb rds dial %s: %w: %w", addr, ErrTransport, err)
		}
		return NewStreamClient(rdsConn{conn, ep}), nil
	}
	return NewSupervisedClient(cfg), nil
}

// rdsConn is an rds connection that owns its local endpoint: closing the
// endpoint closes the connection and the socket under it.
type rdsConn struct {
	*rds.Conn
	ep *rds.Endpoint
}

func (c rdsConn) Close() error { return c.ep.Close() }

// dialShm dials the unix control socket advertised at path with opts.
func dialShm(path string, opts DialOptions) (*ShmClient, error) {
	return DialShmConfig(ShmConfig{
		Path:      path,
		OpTimeout: opts.OpTimeout,
		ClientID:  opts.ClientID,
		Metrics:   opts.Metrics,
		Trace:     opts.Trace,
	})
}

func init() {
	RegisterTransport("tcp", dialSupervised)
	RegisterTransport("tcp_sg", dialSupervised)
	RegisterTransport("rds", dialRDS)
	RegisterTransport("shm", func(opts DialOptions) (Client, error) {
		path, err := negotiateShm(opts)
		if err != nil {
			return nil, err
		}
		return dialShm(path, opts)
	})
	RegisterTransport("auto", func(opts DialOptions) (Client, error) {
		c, _, err := DialAuto(opts)
		return c, err
	})
}

// negotiateShm asks the TCP endpoint whether the zero-copy path is on
// offer and whether both processes share a kernel (same boot id — a memfd
// means nothing across machines). Returns the advertised unix socket path.
func negotiateShm(opts DialOptions) (string, error) {
	if !ShmSupported() {
		return "", ErrShmUnsupported
	}
	if localBootID() == 0 {
		return "", fmt.Errorf("smb: local boot id unknown: %w", ErrShmUnsupported)
	}
	sc, err := Dial(opts.Addr)
	if err != nil {
		return "", err
	}
	defer sc.Close()
	sc.SetTimeouts(opTimeoutOrDefault(opts.OpTimeout))
	flags, serverBoot, path, err := sc.ShmQuery()
	if err != nil {
		return "", err
	}
	if flags&shmQueryOffered == 0 || path == "" {
		return "", errShmNotOffered
	}
	if serverBoot != localBootID() {
		return "", fmt.Errorf("smb: server on a different kernel (boot id mismatch): %w", ErrShmUnsupported)
	}
	return path, nil
}

// DialAuto negotiates the best transport for addr: shared memory when the
// server offers it and lives on this kernel, supervised TCP otherwise.
// Returns the client and the name of what was actually dialed ("shm" or
// "tcp") so callers can log the decision.
func DialAuto(opts DialOptions) (Client, string, error) {
	if path, err := negotiateShm(opts); err == nil {
		c, err := dialShm(path, opts)
		if err == nil {
			return c, "shm", nil
		}
		// The offer was real but the socket failed — fall through to TCP,
		// which is the whole point of negotiating instead of configuring.
	}
	c, err := DialTransport("tcp", opts)
	if err != nil {
		return nil, "", err
	}
	return c, "tcp", nil
}
