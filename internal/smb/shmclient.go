package smb

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"shmcaffe/internal/faults"
	"shmcaffe/internal/telemetry"
)

// ShmClient is the zero-copy client of the shared-memory transport
// (DESIGN.md §16): a mapped-stripe overlay on a supervised session. The
// embedded SupervisedClient is the control connection over the server's
// unix-domain socket — handle directory, reconnect-and-retry, (ClientID,
// seq) dedup, snapshot verbs and trace context are its methods, unchanged.
// What this type adds is the mapping: Attach receives the segment's memfd
// over the session's connection, and the data verbs on a mapped handle run
// directly against the mmapped stripes — no serialization, no syscalls
// beyond the occasional contended-futex wait, and never the session's lock.
// A handle that could not be mapped (heap-backed segment, wrapped socket)
// falls through to the session's wire verb. Snapshot cuts happen server-side
// (the server drains mapped writers through the shared gate and copies the
// segment), so the three snapshot verbs always ride the wire.
//
// Mutual exclusion against the server's own kernels and against other
// mapped workers comes from the shared per-stripe lock words mirrored into
// each segment's control page; this client stamps its acquisitions with
// the lease granted at hello time, so a crash mid-accumulate leaves words
// the server can attribute and reap when the control connection dies.
// Mappings are fd-backed and survive a control-socket redial — the memfd is
// this process's reference, not the socket's.
type ShmClient struct {
	*SupervisedClient

	// lease is the identity of shared-lock acquisitions, published by the
	// session's dial hook on every (re)connection.
	lease atomic.Uint32

	// mu serializes the mapped verbs against Detach/Close, so a mapping is
	// never unmapped under a running kernel.
	mu   sync.Mutex
	maps map[Handle]*shmMapped // guarded by mu; public handle → mapping, nil once closed

	mappedSegs atomic.Int64 // live mappings
	mappedOps  atomic.Int64 // data verbs served from mapped stripes
	ctlOps     atomic.Int64 // data verbs that fell back to the wire

	pushBytes *telemetry.Histogram // immutable after construction; nil = uninstrumented
}

// shmMapped is one mapped segment plus the key its stripe locks order by
// (two mapped clients accumulating A+=B and B+=A lock stripes in the same
// key order the server uses, so crossed pushes cannot deadlock).
type shmMapped struct {
	sh  *shmShared
	key SHMKey
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

// DialShm connects the zero-copy client to a server's unix-domain control
// socket with default timeouts.
func DialShm(path string) (*ShmClient, error) {
	return DialShmConfig(ShmConfig{Path: path})
}

// DialShmConfig dials cfg.Path, performs the shm hello, and returns a
// leased client. Fails fast when the build has the transport compiled out,
// when the socket is unreachable, or when the server is not exporting
// segments (callers then fall back to TCP).
func DialShmConfig(cfg ShmConfig) (*ShmClient, error) {
	if !ShmSupported() {
		return nil, ErrShmUnsupported
	}
	c := &ShmClient{maps: make(map[Handle]*shmMapped)}
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
	var m *shmMapped
	err = c.withHandle("shm-map", h, func(sc *StreamClient, rh Handle) error {
		sh, g, err := sc.shmMap(rh)
		if err == nil {
			m = &shmMapped{sh: sh, key: g.key}
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
		m.sh.close()
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
	m.sh.close()
	return c.detach(h, func(sc *StreamClient, rh Handle) error { return sc.ShmUnmap(rh) })
}

// Close unmaps every segment and closes the control connection.
func (c *ShmClient) Close() error {
	c.mu.Lock()
	for _, m := range c.maps {
		m.sh.close()
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
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maps[h] != nil
}

// stripeSpan clamps stripe ci of a mapped segment to [off, end).
func stripeSpan(sh *shmShared, ci, off, end int) (lo, hi int) {
	lo = ci * chunkBytes
	hi = lo + chunkBytes
	if hi > len(sh.dat) {
		hi = len(sh.dat)
	}
	if lo < off {
		lo = off
	}
	if hi > end {
		hi = end
	}
	return lo, hi
}

// Read implements Client. Mapped segments copy straight out of the shared
// stripes under their lock words — per-stripe atomic, like the server.
//
//shm:hotpath
func (c *ShmClient) Read(h Handle, off int, dst []byte) error {
	c.mu.Lock()
	m := c.maps[h]
	if m == nil {
		c.mu.Unlock()
		c.ctlOps.Add(1)
		return c.SupervisedClient.Read(h, off, dst)
	}
	defer c.mu.Unlock()
	sh := m.sh
	if size := len(sh.dat); off < 0 || off > size || len(dst) > size-off {
		return fmt.Errorf("smb shm read [%d,%d) of %d-byte segment: %w",
			off, off+len(dst), len(sh.dat), ErrOutOfRange)
	}
	lease := c.lease.Load()
	for covered := 0; covered < len(dst); {
		ci := (off + covered) / chunkBytes
		lo, hi := stripeSpan(sh, ci, off+covered, off+len(dst))
		sh.lockStripe(ci, lease)
		copy(dst[covered:covered+(hi-lo)], sh.dat[lo:hi])
		sh.unlockStripe(ci, lease)
		covered += hi - lo
	}
	sh.addOp(shmOffReads, 1)
	c.mappedOps.Add(1)
	return nil
}

// Write implements Client. Mapped segments copy straight into the shared
// stripes and bump the shared version.
//
//shm:hotpath
func (c *ShmClient) Write(h Handle, off int, src []byte) error {
	c.mu.Lock()
	m := c.maps[h]
	if m == nil {
		c.mu.Unlock()
		c.ctlOps.Add(1)
		return c.SupervisedClient.Write(h, off, src)
	}
	defer c.mu.Unlock()
	sh := m.sh
	if size := len(sh.dat); off < 0 || off > size || len(src) > size-off {
		return fmt.Errorf("smb shm write [%d,%d) of %d-byte segment: %w",
			off, off+len(src), len(sh.dat), ErrOutOfRange)
	}
	lease := c.lease.Load()
	// Hold the shared snapshot gate in read mode across the whole op so a
	// server-side Snapshot cannot cut between stripes of one mapped write.
	sh.snapGateRLock()
	for covered := 0; covered < len(src); {
		ci := (off + covered) / chunkBytes
		lo, hi := stripeSpan(sh, ci, off+covered, off+len(src))
		sh.lockStripe(ci, lease)
		copy(sh.dat[lo:hi], src[covered:covered+(hi-lo)])
		sh.unlockStripe(ci, lease)
		covered += hi - lo
	}
	sh.addOp(shmOffWrites, 1)
	sh.bumpVersion()
	sh.snapGateRUnlock()
	c.mappedOps.Add(1)
	return nil
}

// Accumulate implements Client: dst[i] += src[i] float32-wise, stripe by
// stripe under both segments' shared lock words, taken in key order — the
// same order the server and every other mapped client use, so crossed
// accumulates cannot deadlock.
//
//shm:hotpath
func (c *ShmClient) Accumulate(dst, src Handle) error {
	c.mu.Lock()
	dm, sm := c.maps[dst], c.maps[src]
	if dm == nil || sm == nil {
		// One side rides the wire → the whole op does: the server is the
		// only place that can see both segments.
		c.mu.Unlock()
		c.ctlOps.Add(1)
		return c.SupervisedClient.Accumulate(dst, src)
	}
	defer c.mu.Unlock()
	dsh, ssh := dm.sh, sm.sh
	if len(dsh.dat) != len(ssh.dat) {
		return fmt.Errorf("smb shm accumulate: size mismatch %d vs %d: %w",
			len(dsh.dat), len(ssh.dat), ErrSizeMismatch)
	}
	lease := c.lease.Load()
	// Gate the destination only: src is read, not mutated, so a snapshot of
	// src cannot be torn by this op, and single-gate acquisition keeps the
	// mapped accumulate deadlock-free against cross-segment gate holders.
	dsh.snapGateRLock()
	for ci := 0; ci < dsh.stripes; ci++ {
		lo, hi := stripeSpan(dsh, ci, 0, len(dsh.dat))
		lockStripePair(dsh, dm.key, ssh, sm.key, ci, lease)
		err := accumulateChunk(dsh.dat[lo:hi], ssh.dat[lo:hi])
		unlockStripePair(dsh, dm.key, ssh, sm.key, ci, lease)
		if err != nil {
			dsh.snapGateRUnlock()
			return err
		}
	}
	dsh.addOp(shmOffAccumulates, 1)
	dsh.addOp(shmOffBytesAcc, uint64(len(dsh.dat)))
	dsh.bumpVersion()
	dsh.snapGateRUnlock()
	c.mappedOps.Add(1)
	return nil
}

// lockStripePair takes stripe ci's shared words of two distinct segments
// in key order (self-accumulate takes the word once).
//
//shm:hotpath
func lockStripePair(a *shmShared, ak SHMKey, b *shmShared, bk SHMKey, ci int, lease uint32) {
	switch {
	case a == b:
		a.lockStripe(ci, lease)
	case ak < bk:
		a.lockStripe(ci, lease)
		b.lockStripe(ci, lease)
	default:
		b.lockStripe(ci, lease)
		a.lockStripe(ci, lease)
	}
}

// snapGateRLockPair takes two segments' shared snapshot gates in read mode,
// in key order. Ordering matters even for shared acquisition: a pending
// snapshot writer blocks new readers, so two fused ops acquiring opposite
// orders while snapshots pend on both gates would otherwise cycle.
func snapGateRLockPair(a *shmShared, ak SHMKey, b *shmShared, bk SHMKey) {
	switch {
	case a == b:
		a.snapGateRLock()
	case ak < bk:
		a.snapGateRLock()
		b.snapGateRLock()
	default:
		b.snapGateRLock()
		a.snapGateRLock()
	}
}

func snapGateRUnlockPair(a, b *shmShared) {
	if a == b {
		a.snapGateRUnlock()
		return
	}
	a.snapGateRUnlock()
	b.snapGateRUnlock()
}

//shm:hotpath
func unlockStripePair(a *shmShared, ak SHMKey, b *shmShared, bk SHMKey, ci int, lease uint32) {
	switch {
	case a == b:
		a.unlockStripe(ci, lease)
	case ak < bk:
		b.unlockStripe(ci, lease)
		a.unlockStripe(ci, lease)
	default:
		a.unlockStripe(ci, lease)
		b.unlockStripe(ci, lease)
	}
}

// WriteAccumulate implements Client fused against the mapped stripes: per
// stripe, copy the pushed bytes into src and add the same range into dst,
// under both lock words. One pass over the data, zero protocol bytes — this
// is the transport's headline verb (ΔWx push).
//
//shm:hotpath
func (c *ShmClient) WriteAccumulate(dst, src Handle, data []byte) error {
	c.mu.Lock()
	dm, sm := c.maps[dst], c.maps[src]
	if dm == nil || sm == nil {
		c.mu.Unlock()
		c.ctlOps.Add(1)
		return c.SupervisedClient.WriteAccumulate(dst, src, data)
	}
	defer c.mu.Unlock()
	dsh, ssh := dm.sh, sm.sh
	if len(dsh.dat) != len(ssh.dat) || len(data) != len(ssh.dat) {
		return fmt.Errorf("smb shm write+accumulate %d bytes: %d += %d bytes: %w",
			len(data), len(dsh.dat), len(ssh.dat), ErrSizeMismatch)
	}
	if len(data)%4 != 0 {
		return fmt.Errorf("smb shm write+accumulate: %d bytes: %w", len(data), ErrNotFloatAligned)
	}
	lease := c.lease.Load()
	// Both segments are mutated, so both snapshot gates are held for the
	// whole fused op — in key order, matching every other multi-gate
	// acquisition (Store.WriteAccumulate, snapshot cuts), so gates cannot
	// deadlock across processes.
	snapGateRLockPair(dsh, dm.key, ssh, sm.key)
	defer snapGateRUnlockPair(dsh, ssh)
	for covered := 0; covered < len(data); {
		ci := covered / chunkBytes
		lo, hi := stripeSpan(ssh, ci, covered, len(data))
		lockStripePair(dsh, dm.key, ssh, sm.key, ci, lease)
		// Fault-injection hook: a helper armed with shm-mid-accumulate dies
		// right here, stripe locks held — the scenario the server's
		// dead-lease reap exists for.
		faults.CrashPoint("shm-mid-accumulate")
		var err error
		if dsh == ssh {
			// Self-target: the write lands and is doubled in place, exactly
			// like the server's self-target branch.
			copy(ssh.dat[lo:hi], data[lo:hi])
			err = accumulateChunk(dsh.dat[lo:hi], ssh.dat[lo:hi])
		} else {
			err = copyAccumulateChunk(dsh.dat[lo:hi], ssh.dat[lo:hi], data[lo:hi])
		}
		unlockStripePair(dsh, dm.key, ssh, sm.key, ci, lease)
		if err != nil {
			return err
		}
		covered += hi - lo
	}
	ssh.addOp(shmOffWrites, 1)
	ssh.bumpVersion()
	dsh.addOp(shmOffAccumulates, 1)
	dsh.addOp(shmOffBytesAcc, uint64(len(data)))
	dsh.bumpVersion()
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
