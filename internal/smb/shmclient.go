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
// (DESIGN.md §16): a control connection over the server's unix-domain
// socket carries the metadata verbs (create/lookup/attach, fd passing,
// lease), while the data verbs run directly against mmapped segment
// stripes — no serialization, no syscalls on the data path beyond the
// occasional contended-futex wait.
//
// Mutual exclusion against the server's own kernels and against other
// mapped workers comes from the shared per-stripe lock words mirrored into
// each segment's control page; this client stamps its acquisitions with
// the lease granted at hello time, so a crash mid-accumulate leaves words
// the server can attribute and reap when the control connection dies.
//
// The control connection is supervised the same way SupervisedClient
// supervises its stream: public handles are issued by this client and
// survive a control-socket redial (mappings are fd-backed and stay valid
// across it — the memfd is this process's reference, not the socket's).
type ShmClient struct {
	mu sync.Mutex

	cfg ShmConfig

	ctl   *StreamClient // guarded by mu; nil until dialed / after a drop
	lease uint32        // guarded by mu; identity of shared-lock acquisitions

	keys   map[Handle]SHMKey     // guarded by mu; public handle → key
	remote map[Handle]Handle     // guarded by mu; public → current conn's handle, cleared on redial
	maps   map[Handle]*shmMapped // guarded by mu; public handle → mapping

	nextHandle Handle // guarded by mu
	seq        uint64 // guarded by mu; stamp of the last wire-fallback fold

	wantTrace bool         // guarded by mu
	tc        TraceContext // guarded by mu

	closed bool // guarded by mu

	mappedSegs atomic.Int64 // live mappings
	mappedOps  atomic.Int64 // data verbs served from mapped stripes
	ctlOps     atomic.Int64 // data verbs that fell back to the wire
	reconnects atomic.Int64 // control-socket redials after the first dial

	inst *shmClientInstruments // set before use; nil = uninstrumented
}

// shmMapped is one mapped segment plus the key its stripe locks order by
// (two mapped clients accumulating A+=B and B+=A lock stripes in the same
// key order the server uses, so crossed pushes cannot deadlock).
//
// done/waiters fence the munmap against parked WaitUpdate callers: a waiter
// registers in the WaitGroup under c.mu while the mapping is still in
// c.maps, and release() closes done, drains the group, and only then
// unmaps — so a park in waitVersion can never touch unmapped memory.
type shmMapped struct {
	sh      *shmShared
	key     SHMKey
	done    chan struct{}  // closed by release(); cancels parked WaitUpdate calls
	waiters sync.WaitGroup // WaitUpdate calls currently inside waitVersion
}

// release retires a mapping removed from c.maps: cancel parked waiters,
// wait for them to leave the mapping, then munmap. Called with c.mu NOT
// held — waiters re-check done within shmVersionWaitNs and never need the
// client mutex to return, so the drain is bounded.
func (m *shmMapped) release() {
	close(m.done)
	m.waiters.Wait()
	m.sh.close()
}

// ShmConfig configures DialShmConfig.
type ShmConfig struct {
	// Path is the server's unix-domain control socket.
	Path string
	// OpTimeout bounds each control round trip (default 10s; <0 = none).
	OpTimeout time.Duration
	// WaitTimeout bounds wire-fallback WaitUpdate calls (default OpTimeout).
	WaitTimeout time.Duration
	// ClientID keys the server-side dedup of wire-fallback folds. 0 draws
	// a process-local unique ID; multi-process jobs must set it (rank+1),
	// like SupervisedConfig.ClientID.
	ClientID uint64
}

// shmCtlAttempts bounds control-verb retries across redials; mirrors the
// supervised client's spirit with a shorter leash (the server is on the
// same machine — if the unix socket stays dead, it is dead).
const shmCtlAttempts = 3

var errShmClientClosed = errors.New("smb: shm client closed")

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
	cfg.OpTimeout, cfg.WaitTimeout = shmTimeouts(cfg.OpTimeout, cfg.WaitTimeout)
	if cfg.ClientID == 0 {
		cfg.ClientID = supervisedClientIDs.Add(1)
	}
	c := &ShmClient{
		cfg:    cfg,
		keys:   make(map[Handle]SHMKey),
		remote: make(map[Handle]Handle),
		maps:   make(map[Handle]*shmMapped),
	}
	c.mu.Lock()
	err := c.redialLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	c.reconnects.Store(0) // the first dial is not a reconnect
	return c, nil
}

// shmTimeouts applies the shm control-plane timeout defaults shared by
// DialShmConfig and negotiateShm: op 0 → 10s, op < 0 → no deadline; wait
// defaults to op. Keeping both dial paths on one helper means DialAuto's
// negotiation probe can never hang forever where a direct DialShm would
// have timed out.
func shmTimeouts(op, wait time.Duration) (time.Duration, time.Duration) {
	if op == 0 {
		op = 10 * time.Second
	} else if op < 0 {
		op = 0
	}
	if wait <= 0 {
		wait = op
	}
	return op, wait
}

var _ Client = (*ShmClient)(nil)
var _ Notifier = (*ShmClient)(nil)
var _ TraceCarrier = (*ShmClient)(nil)

// redialLocked (re)establishes the control connection: dial, hello for a
// fresh lease, re-negotiate tracing. Existing mappings are untouched — the
// memfds are held by this process and survive any number of socket blips.
func (c *ShmClient) redialLocked() error {
	conn, err := net.DialTimeout("unix", c.cfg.Path, 10*time.Second)
	if err != nil {
		return fmt.Errorf("smb shm dial %s: %w: %w", c.cfg.Path, ErrTransport, err)
	}
	sc := NewStreamClient(conn)
	sc.SetTimeouts(c.cfg.OpTimeout, c.cfg.WaitTimeout)
	lease, err := sc.ShmHello()
	if err != nil {
		sc.Close()
		return fmt.Errorf("smb shm hello: %w", err)
	}
	if c.wantTrace {
		if ok, _ := sc.NegotiateTrace(); ok {
			sc.SetTraceContext(c.tc)
		}
	}
	c.ctl = sc
	c.lease = lease
	c.reconnects.Add(1)
	return nil
}

// dropCtlLocked discards a poisoned control connection. Remote handles are
// per-connection server state, so the resolution cache empties with it.
func (c *ShmClient) dropCtlLocked() {
	if c.ctl != nil {
		c.ctl.Close()
		c.ctl = nil
	}
	clear(c.remote)
}

// withCtlLocked runs fn against a live control connection, redialing and
// retrying on transport failure up to shmCtlAttempts times. Remote errors
// (the server answered) return immediately. Callers hold c.mu.
func (c *ShmClient) withCtlLocked(fn func(ctl *StreamClient) error) error {
	if c.closed {
		return errShmClientClosed
	}
	var lastErr error
	for attempt := 0; attempt < shmCtlAttempts; attempt++ {
		if c.ctl == nil {
			if err := c.redialLocked(); err != nil {
				lastErr = err
				continue
			}
		}
		err := fn(c.ctl)
		if err == nil || !errors.Is(err, ErrTransport) {
			return err
		}
		lastErr = err
		c.dropCtlLocked()
	}
	return fmt.Errorf("smb shm control: %d attempts exhausted: %w", shmCtlAttempts, lastErr)
}

// resolveLocked maps a public handle to the current control connection's
// handle, re-attaching lazily after a redial.
func (c *ShmClient) resolveLocked(ctl *StreamClient, h Handle) (Handle, error) {
	if rh, ok := c.remote[h]; ok {
		return rh, nil
	}
	key, ok := c.keys[h]
	if !ok {
		return 0, fmt.Errorf("smb shm client: %w: handle %d", ErrUnknownHandle, h)
	}
	rh, err := ctl.Attach(key)
	if err != nil {
		return 0, err
	}
	c.remote[h] = rh //lint:ignore hotalloc re-attach runs once per handle per redial; steady-state hits the cache lookup above
	return rh, nil
}

// Create implements Client over the control socket.
func (c *ShmClient) Create(name string, size int) (SHMKey, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var key SHMKey
	err := c.withCtlLocked(func(ctl *StreamClient) error {
		var err error
		key, err = ctl.Create(name, size)
		return err
	})
	return key, err
}

// Lookup implements Client over the control socket.
func (c *ShmClient) Lookup(name string) (SHMKey, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var key SHMKey
	err := c.withCtlLocked(func(ctl *StreamClient) error {
		var err error
		key, err = ctl.Lookup(name)
		return err
	})
	return key, err
}

// Attach implements Client: attach on the server, then try to map the
// segment. A segment that cannot be mapped (heap-backed, created before
// EnableShm) still attaches — its data verbs just ride the wire.
func (c *ShmClient) Attach(key SHMKey) (Handle, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.nextHandle + 1
	var mapped *shmMapped
	err := c.withCtlLocked(func(ctl *StreamClient) error {
		rh, err := ctl.Attach(key)
		if err != nil {
			return err
		}
		c.remote[h] = rh
		sh, g, merr := ctl.shmMap(rh)
		if merr == nil {
			mapped = &shmMapped{sh: sh, key: g.key, done: make(chan struct{})}
			return nil
		}
		if errors.Is(merr, ErrTransport) {
			return merr // fd pass desynced the stream; redial and retry
		}
		return nil // unmappable segment: wire verbs serve this handle
	})
	if err != nil {
		delete(c.remote, h)
		return 0, err
	}
	c.nextHandle = h
	c.keys[h] = key
	if mapped != nil {
		c.maps[h] = mapped
		c.mappedSegs.Add(1)
	}
	return h, nil
}

// Detach implements Client. Local state always goes; the server-side unmap
// accounting and detach are best-effort single shots (a dead control
// socket reaps them anyway when it redials or the server notices). A
// WaitUpdate parked on the mapping returns ErrWaitCanceled — the munmap is
// deferred (outside c.mu) until every parked waiter has left the mapping.
func (c *ShmClient) Detach(h Handle) error {
	c.mu.Lock()
	if _, ok := c.keys[h]; !ok {
		c.mu.Unlock()
		return fmt.Errorf("smb shm client: %w: handle %d", ErrUnknownHandle, h)
	}
	rh, haveRemote := c.remote[h]
	m := c.maps[h]
	if m != nil {
		if haveRemote && c.ctl != nil {
			if err := c.ctl.ShmUnmap(rh); err != nil && errors.Is(err, ErrTransport) {
				c.dropCtlLocked()
				haveRemote = false
			}
		}
		delete(c.maps, h)
		c.mappedSegs.Add(-1)
	}
	if haveRemote && c.ctl != nil {
		if err := c.ctl.Detach(rh); err != nil && errors.Is(err, ErrTransport) {
			c.dropCtlLocked()
		}
	}
	delete(c.remote, h)
	delete(c.keys, h)
	c.mu.Unlock()
	if m != nil {
		m.release()
	}
	return nil
}

// Free implements Client over the control socket.
func (c *ShmClient) Free(key SHMKey) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.withCtlLocked(func(ctl *StreamClient) error { return ctl.Free(key) })
}

// Close unmaps every segment and closes the control connection. Blocked
// mapped WaitUpdate calls return ErrWaitCanceled; each munmap waits
// (outside c.mu) for the mapping's parked waiters to drain first.
func (c *ShmClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	maps := make([]*shmMapped, 0, len(c.maps))
	for h, m := range c.maps {
		maps = append(maps, m)
		delete(c.maps, h)
	}
	c.mappedSegs.Store(0)
	if c.ctl != nil {
		c.ctl.Close()
		c.ctl = nil
	}
	c.mu.Unlock()
	for _, m := range maps {
		m.release()
	}
	return nil
}

// Lease returns the shared-lock identity granted at hello time (test and
// diagnostic hook; changes when the control socket redials).
func (c *ShmClient) Lease() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lease
}

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
	defer c.mu.Unlock()
	if c.closed {
		return errShmClientClosed
	}
	m := c.maps[h]
	if m == nil {
		c.ctlOps.Add(1)
		return c.withCtlLocked(func(ctl *StreamClient) error {
			rh, err := c.resolveLocked(ctl, h)
			if err != nil {
				return err
			}
			return ctl.Read(rh, off, dst)
		})
	}
	sh := m.sh
	if off < 0 || off+len(dst) > len(sh.dat) {
		return fmt.Errorf("smb shm read [%d,%d) of %d-byte segment: %w",
			off, off+len(dst), len(sh.dat), ErrOutOfRange)
	}
	for covered := 0; covered < len(dst); {
		ci := (off + covered) / chunkBytes
		lo, hi := stripeSpan(sh, ci, off+covered, off+len(dst))
		sh.lockStripe(ci, c.lease)
		copy(dst[covered:covered+(hi-lo)], sh.dat[lo:hi])
		sh.unlockStripe(ci, c.lease)
		covered += hi - lo
	}
	sh.addOp(shmOffReads, 1)
	c.mappedOps.Add(1)
	return nil
}

// Write implements Client. Mapped segments copy straight into the shared
// stripes and bump the shared version (waking cross-process watchers).
//
//shm:hotpath
func (c *ShmClient) Write(h Handle, off int, src []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errShmClientClosed
	}
	m := c.maps[h]
	if m == nil {
		c.ctlOps.Add(1)
		return c.withCtlLocked(func(ctl *StreamClient) error {
			rh, err := c.resolveLocked(ctl, h)
			if err != nil {
				return err
			}
			return ctl.Write(rh, off, src)
		})
	}
	sh := m.sh
	if off < 0 || off+len(src) > len(sh.dat) {
		return fmt.Errorf("smb shm write [%d,%d) of %d-byte segment: %w",
			off, off+len(src), len(sh.dat), ErrOutOfRange)
	}
	// Hold the shared snapshot gate in read mode across the whole op so a
	// server-side Snapshot cannot cut between stripes of one mapped write.
	sh.snapGateRLock()
	for covered := 0; covered < len(src); {
		ci := (off + covered) / chunkBytes
		lo, hi := stripeSpan(sh, ci, off+covered, off+len(src))
		sh.lockStripe(ci, c.lease)
		copy(sh.dat[lo:hi], src[covered:covered+(hi-lo)])
		sh.unlockStripe(ci, c.lease)
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
	defer c.mu.Unlock()
	return c.accumulateLocked(dst, src)
}

func (c *ShmClient) accumulateLocked(dst, src Handle) error {
	if c.closed {
		return errShmClientClosed
	}
	dm, sm := c.maps[dst], c.maps[src]
	if dm == nil || sm == nil {
		return c.wireAccumulateLocked(dst, src, nil)
	}
	dsh, ssh := dm.sh, sm.sh
	if len(dsh.dat) != len(ssh.dat) {
		return fmt.Errorf("smb shm accumulate: size mismatch %d vs %d: %w",
			len(dsh.dat), len(ssh.dat), ErrSizeMismatch)
	}
	lease := c.lease
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

// wireAccumulateLocked folds src into dst on the server, for handles that
// are not both mapped: one side rides the wire → the whole op does, because
// the server is the only place that can see both. stage, when non-nil, is
// first written into src. The fold is stamped with this client's
// (ClientID, seq), drawn once before the retry loop, so a control-socket
// redial mid-push replays the idempotent Write and the same stamp, and the
// server applies the fold exactly once. Callers hold c.mu.
func (c *ShmClient) wireAccumulateLocked(dst, src Handle, stage []byte) error {
	c.ctlOps.Add(1)
	c.seq++
	seq := c.seq
	return c.withCtlLocked(func(ctl *StreamClient) error {
		rd, err := c.resolveLocked(ctl, dst)
		if err != nil {
			return err
		}
		rs, err := c.resolveLocked(ctl, src)
		if err != nil {
			return err
		}
		if stage != nil {
			if err := ctl.Write(rs, 0, stage); err != nil {
				return err
			}
		}
		_, err = ctl.SeqAccumulate(rd, rs, c.cfg.ClientID, seq)
		return err
	})
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
	defer c.mu.Unlock()
	if c.closed {
		return errShmClientClosed
	}
	dm, sm := c.maps[dst], c.maps[src]
	if dm == nil || sm == nil {
		return c.wireAccumulateLocked(dst, src, data)
	}
	dsh, ssh := dm.sh, sm.sh
	if len(dsh.dat) != len(ssh.dat) || len(data) != len(ssh.dat) {
		return fmt.Errorf("smb shm write+accumulate %d bytes: %d += %d bytes: %w",
			len(data), len(dsh.dat), len(ssh.dat), ErrSizeMismatch)
	}
	if len(data)%4 != 0 {
		return fmt.Errorf("smb shm write+accumulate: %d bytes: %w", len(data), ErrNotFloatAligned)
	}
	lease := c.lease
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
	if c.inst != nil {
		c.inst.pushBytes.Observe(float64(len(data)))
	}
	return nil
}

// Version implements Notifier: the shared version word for mapped
// segments, a control round trip otherwise.
func (c *ShmClient) Version(h Handle) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, errShmClientClosed
	}
	if m := c.maps[h]; m != nil {
		return m.sh.version(), nil
	}
	var v uint64
	err := c.withCtlLocked(func(ctl *StreamClient) error {
		rh, err := c.resolveLocked(ctl, h)
		if err != nil {
			return err
		}
		v, err = ctl.Version(rh)
		return err
	})
	return v, err
}

// WaitUpdate implements Notifier. Mapped segments park on the shared
// version futex without holding the client mutex, so watchers do not
// starve the data path; Close and Detach cancel the park. The waiter
// registers in the mapping's WaitGroup while still under c.mu (the mapping
// is provably not yet released), which is what lets release() order every
// parked waiter's exit strictly before the munmap.
func (c *ShmClient) WaitUpdate(h Handle, since uint64) (uint64, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, errShmClientClosed
	}
	if m := c.maps[h]; m != nil {
		m.waiters.Add(1)
		c.mu.Unlock()
		v, _, err := m.sh.waitVersion(since, m.done)
		m.waiters.Done()
		if err != nil {
			return 0, fmt.Errorf("smb shm wait since %d: %w", since, err)
		}
		return v, nil
	}
	defer c.mu.Unlock()
	var v uint64
	err := c.withCtlLocked(func(ctl *StreamClient) error {
		rh, err := c.resolveLocked(ctl, h)
		if err != nil {
			return err
		}
		v, err = ctl.WaitUpdate(rh, since)
		return err
	})
	return v, err
}

// EnableTrace makes the control connection negotiate the trace extension
// now and after every redial. Mapped data verbs never cross the wire, so
// trace context rides only the control verbs; the worker-side tracer spans
// cover the mapped operations themselves.
func (c *ShmClient) EnableTrace() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wantTrace = true
	if c.ctl != nil {
		if ok, _ := c.ctl.NegotiateTrace(); ok {
			c.ctl.SetTraceContext(c.tc)
		}
	}
}

// SetTraceContext implements TraceCarrier.
func (c *ShmClient) SetTraceContext(tc TraceContext) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tc = tc
	if c.ctl != nil {
		c.ctl.SetTraceContext(tc)
	}
}

// ClearTraceContext implements TraceCarrier.
func (c *ShmClient) ClearTraceContext() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tc = TraceContext{}
	if c.ctl != nil {
		c.ctl.ClearTraceContext()
	}
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

type shmClientInstruments struct {
	pushBytes *telemetry.Histogram
}

// Instrument registers the client's counters with reg.
func (c *ShmClient) Instrument(reg *telemetry.Registry) {
	reg.GaugeFunc("smb_shm_client_mapped_segments", "segments served zero-copy from a mapping",
		func() float64 { return float64(c.mappedSegs.Load()) })
	reg.CounterFunc("smb_shm_client_mapped_ops_total", "data verbs served from mapped stripes",
		c.mappedOps.Load)
	reg.CounterFunc("smb_shm_client_ctl_ops_total", "data verbs that fell back to the control socket",
		c.ctlOps.Load)
	reg.CounterFunc("smb_shm_client_reconnects_total", "control-socket redials after the first dial",
		c.reconnects.Load)
	c.inst = &shmClientInstruments{
		pushBytes: reg.Histogram("smb_shm_client_push_bytes",
			"payload bytes per mapped write+accumulate", telemetry.ExpBuckets(1024, 4, 10)),
	}
}
