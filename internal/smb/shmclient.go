package smb

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"shmcaffe/internal/telemetry"
)

// ShmClient is the zero-copy client of the shared-memory transport
// (DESIGN.md §16): a mapped-stripe overlay on a supervised session. The
// embedded SupervisedClient is the control connection over the server's
// unix-domain socket — handle directory, reconnect-and-retry, (ClientID,
// seq) dedup, snapshot verbs and trace context are its methods, unchanged.
// What this type adds is the mapping: Attach receives the segment's memfd
// over the session's connection, and the data verbs on a mapped handle run
// the Store's own segment code directly against the mmapped stripes — no
// serialization, no syscalls beyond the occasional contended-futex wait,
// and never the session's lock.
// A handle that could not be mapped (heap-backed segment, wrapped socket)
// falls through to the session's wire verb. Snapshot cuts happen server-side
// (the server drains mapped writers through the shared gate and copies the
// segment), so the three snapshot verbs always ride the wire.
//
// Mutual exclusion against the server's own kernels and against other
// mapped workers comes from the shared per-stripe lock words mirrored into
// each segment's control page, taken in the one order every process
// follows (shmseg.go); this client stamps its acquisitions with the lease
// granted at hello time, so a crash mid-accumulate leaves words
// the server can attribute and reap when the control connection dies.
// Mappings are fd-backed and survive a control-socket redial — the memfd is
// this process's reference, not the socket's.
type ShmClient struct {
	*SupervisedClient

	// lease is the identity of shared-lock acquisitions, published by the
	// session's dial hook on every (re)connection.
	lease atomic.Uint32

	// mu keeps a mapping from being unmapped under a running kernel: the
	// mapped verbs hold it shared for the whole op; Attach's insert, Detach
	// and Close hold it exclusively. Two verbs so meet only on the stripe
	// and gate locks of a segment both touch, where this process's
	// goroutines queue on segment's in-process lock before the shared word.
	mu   sync.RWMutex
	maps map[Handle]*segment // guarded by mu; public handle → mapping, nil once closed

	mappedSegs atomic.Int64 // live mappings
	mappedOps  atomic.Int64 // data verbs served from mapped stripes
	ctlOps     atomic.Int64 // data verbs that fell back to the wire

	pushBytes *telemetry.Histogram // immutable after construction; nil = uninstrumented
}

// ShmConfig configures DialShmConfig.
type ShmConfig struct {
	// Path is the server's unix-domain control socket.
	Path string
	// OpTimeout bounds each control round trip (default 10s; <0 = none).
	OpTimeout time.Duration
	// ClientID keys the server-side dedup of wire-fallback folds. 0 draws
	// a process-local unique ID; multi-process jobs must set it (rank+1),
	// like SupervisedConfig.ClientID.
	ClientID uint64
	// Metrics, when set, receives the client's transport counters
	// (smb_shm_client_*).
	Metrics *telemetry.Registry
	// Trace negotiates the trace extension on the control connection.
	// Mapped data verbs never cross the wire, so trace context rides only
	// the control and fallback verbs; the worker-side tracer spans cover
	// the mapped operations themselves.
	Trace bool
}

// shmCtlAttempts bounds control-verb retries across redials: a shorter
// leash than the TCP default (the server is on the same machine — if the
// unix socket stays dead, it is dead).
const shmCtlAttempts = 3

// DialShmConfig dials cfg.Path, performs the shm hello, and returns a
// leased client. Fails fast when the build has the transport compiled out,
// when the socket is unreachable, or when the server is not exporting
// segments (callers then fall back to TCP).
func DialShmConfig(cfg ShmConfig) (*ShmClient, error) {
	if !ShmSupported() {
		return nil, ErrShmUnsupported
	}
	c := &ShmClient{maps: make(map[Handle]*segment)}
	c.SupervisedClient = NewSupervisedClient(SupervisedConfig{
		Addr:        cfg.Path,
		OpTimeout:   cfg.OpTimeout,
		MaxAttempts: shmCtlAttempts,
		ClientID:    cfg.ClientID,
		Trace:       cfg.Trace,
		// Every (re)connection says hello for a fresh lease before the
		// session sees it.
		Dial: func(path string) (*StreamClient, error) {
			conn, err := net.DialTimeout("unix", path, dialTimeout)
			if err != nil {
				return nil, fmt.Errorf("smb shm dial %s: %w: %w", path, ErrTransport, err)
			}
			sc := NewStreamClient(conn)
			sc.SetTimeouts(c.cfg.OpTimeout) // the session's defaulted budget bounds the hello too
			lease, err := sc.ShmHello()
			if err != nil {
				sc.Close()
				return nil, fmt.Errorf("smb shm hello: %w", err)
			}
			c.lease.Store(lease)
			return sc, nil
		},
	})
	if err := c.connect(); err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		c.instrument(cfg.Metrics)
	}
	return c, nil
}

var _ Client = (*ShmClient)(nil)

// Attach implements Client: attach through the session, then try to map the
// segment. A segment that cannot be mapped (heap-backed, created before
// EnableShm) still attaches — its data verbs just ride the wire.
func (c *ShmClient) Attach(key SHMKey) (Handle, error) {
	h, err := c.SupervisedClient.Attach(key)
	if err != nil {
		return 0, err
	}
	var m *segment
	err = c.withHandle("shm-map", h, func(sc *StreamClient, rh Handle) error {
		sh, g, err := sc.shmMap(rh)
		if err == nil {
			// This process's view of the segment is the Store's own type,
			// so every verb runs the same stripe code in the same lock
			// order; the key orders its stripe pairs and names it in errors.
			m = &segment{key: g.key, name: fmt.Sprintf("shm key %d", g.key),
				locks: make([]sync.RWMutex, sh.stripes), data: sh.dat, shm: sh}
			return nil
		}
		if errors.Is(err, ErrTransport) {
			return err // fd pass desynced the stream; redial and retry
		}
		return nil // unmappable segment: wire verbs serve this handle
	})
	if err != nil {
		_ = c.SupervisedClient.Detach(h) // the map failure is the error to report
		return 0, err
	}
	if m == nil {
		return h, nil
	}
	c.mu.Lock()
	if c.maps == nil { // Close won the race: nobody is left to unmap m
		c.mu.Unlock()
		m.shm.close()
		return 0, errClientClosed
	}
	c.maps[h] = m
	c.mu.Unlock()
	c.mappedSegs.Add(1)
	return h, nil
}

// Detach implements Client. Local state always goes; the server-side unmap
// accounting and detach are best-effort single shots (a dead control socket
// reaps them anyway when the server notices).
func (c *ShmClient) Detach(h Handle) error {
	c.mu.Lock()
	m := c.maps[h]
	delete(c.maps, h)
	c.mu.Unlock()
	if m == nil {
		return c.SupervisedClient.Detach(h)
	}
	c.mappedSegs.Add(-1)
	m.shm.close()
	return c.detach(h, func(sc *StreamClient, rh Handle) error { return sc.ShmUnmap(rh) })
}

// Close unmaps every segment and closes the control connection.
func (c *ShmClient) Close() error {
	c.mu.Lock()
	for _, m := range c.maps {
		m.shm.close()
	}
	c.maps = nil
	c.mappedSegs.Store(0)
	c.mu.Unlock()
	return c.SupervisedClient.Close()
}

// Lease returns the shared-lock identity granted at hello time (test and
// diagnostic hook; changes when the control socket redials).
func (c *ShmClient) Lease() uint32 { return c.lease.Load() }

// Mapped reports whether h's data verbs run against mapped stripes.
func (c *ShmClient) Mapped(h Handle) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.maps[h] != nil
}

// Read implements Client. A mapped segment is read straight out of the
// shared stripes by segment.walk — per-stripe atomic, like the server.
//
//shm:hotpath
func (c *ShmClient) Read(h Handle, off int, dst []byte) error {
	c.mu.RLock()
	seg := c.maps[h]
	if seg == nil {
		c.mu.RUnlock()
		c.ctlOps.Add(1)
		return c.SupervisedClient.Read(h, off, dst)
	}
	defer c.mu.RUnlock()
	x := stripeIO{buf: dst}
	if err := seg.walk(off, len(dst), false, 1, &x, c.lease.Load()); err != nil {
		return err
	}
	seg.shm.addOp(shmOffReads, 1)
	c.mappedOps.Add(1)
	return nil
}

// Write implements Client. A mapped segment is written straight into the
// shared stripes by segment.walk, which bumps the shared version.
//
//shm:hotpath
func (c *ShmClient) Write(h Handle, off int, src []byte) error {
	c.mu.RLock()
	seg := c.maps[h]
	if seg == nil {
		c.mu.RUnlock()
		c.ctlOps.Add(1)
		return c.SupervisedClient.Write(h, off, src)
	}
	defer c.mu.RUnlock()
	x := stripeIO{buf: src}
	if err := seg.walk(off, len(src), true, 1, &x, c.lease.Load()); err != nil {
		return err
	}
	seg.shm.addOp(shmOffWrites, 1)
	c.mappedOps.Add(1)
	return nil
}

// Accumulate implements Client: dst[i] += src[i] float32-wise by
// segment.accumulate against the mapped stripes, under the same key-ordered
// lock pairs the server and every other mapped client use, so crossed
// accumulates cannot deadlock.
//
//shm:hotpath
func (c *ShmClient) Accumulate(dst, src Handle) error {
	c.mu.RLock()
	dseg, sseg := c.maps[dst], c.maps[src]
	if dseg == nil || sseg == nil {
		// One side rides the wire → the whole op does: the server is the
		// only place that can see both segments.
		c.mu.RUnlock()
		c.ctlOps.Add(1)
		return c.SupervisedClient.Accumulate(dst, src)
	}
	defer c.mu.RUnlock()
	if _, err := dseg.accumulate(sseg, c.lease.Load(), false); err != nil {
		return err
	}
	dseg.shm.addOp(shmOffAccumulates, 1)
	dseg.shm.addOp(shmOffBytesAcc, uint64(len(dseg.data)))
	c.mappedOps.Add(1)
	return nil
}

// WriteAccumulate implements Client by segment.writeAccumulate against the
// mapped stripes: per stripe, the pushed bytes land in src and fold into
// dst in one pass, under both lock words. Zero protocol bytes — this is
// the transport's headline verb (ΔWx push).
//
//shm:hotpath
func (c *ShmClient) WriteAccumulate(dst, src Handle, data []byte) error {
	c.mu.RLock()
	dseg, sseg := c.maps[dst], c.maps[src]
	if dseg == nil || sseg == nil {
		c.mu.RUnlock()
		c.ctlOps.Add(1)
		return c.SupervisedClient.WriteAccumulate(dst, src, data)
	}
	defer c.mu.RUnlock()
	if _, err := dseg.writeAccumulate(sseg, data, c.lease.Load(), false); err != nil {
		return err
	}
	sseg.shm.addOp(shmOffWrites, 1)
	dseg.shm.addOp(shmOffAccumulates, 1)
	dseg.shm.addOp(shmOffBytesAcc, uint64(len(data)))
	c.mappedOps.Add(1)
	if c.pushBytes != nil {
		c.pushBytes.Observe(float64(len(data)))
	}
	return nil
}

// ShmClientStats is a snapshot of the client's transport counters.
type ShmClientStats struct {
	MappedSegments int64 // live mappings
	MappedOps      int64 // data verbs served from mapped stripes
	CtlOps         int64 // data verbs that fell back to the wire
	Reconnects     int64 // control-socket redials after the first dial
}

// Stats returns a snapshot of the client's transport counters.
func (c *ShmClient) Stats() ShmClientStats {
	return ShmClientStats{
		MappedSegments: c.mappedSegs.Load(),
		MappedOps:      c.mappedOps.Load(),
		CtlOps:         c.ctlOps.Load(),
		Reconnects:     c.reconnects.Load(),
	}
}

// instrument registers the client's counters with reg.
func (c *ShmClient) instrument(reg *telemetry.Registry) {
	reg.GaugeFunc("smb_shm_client_mapped_segments", "segments served zero-copy from a mapping",
		func() float64 { return float64(c.mappedSegs.Load()) })
	reg.CounterFunc("smb_shm_client_mapped_ops_total", "data verbs served from mapped stripes",
		c.mappedOps.Load)
	reg.CounterFunc("smb_shm_client_ctl_ops_total", "data verbs that fell back to the control socket",
		c.ctlOps.Load)
	reg.CounterFunc("smb_shm_client_reconnects_total", "control-socket redials after the first dial",
		c.reconnects.Load)
	c.pushBytes = reg.Histogram("smb_shm_client_push_bytes",
		"payload bytes per mapped write+accumulate", telemetry.ExpBuckets(1024, 4, 10))
}
