package smb

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"shmcaffe/internal/telemetry"
)

// SupervisedClient: the fault-tolerant SMB data path.
//
// A bare StreamClient maps one failure model — the connection is perfect or
// the job is dead. SupervisedClient layers the recovery the paper's
// always-up memory server never needed: per-operation deadlines (via
// StreamClient.SetTimeouts), transport failures answered by an exponential
// backoff + jitter reconnect, a replay of the Fig. 2 attach sequence on the
// fresh connection so the caller's handles stay valid, and sequence-stamped
// pushes (seq.go) so a retried WRITE+ACCUMULATE lands at most once however
// many times the connection died under it.
//
// Retry policy follows the error taxonomy of the wire client:
//
//   - ErrTransport (broken pipe, fired deadline, dial failure): the server
//     may never have seen the request, or may have answered into the void —
//     reconnect and retry. Safe because every verb routed through here is
//     idempotent (Write/Read of fixed ranges, Lookup/Attach) or deduped
//     (SeqAccumulate).
//   - Remote errors (ErrUnknownSegment, ErrOutOfRange...): the server spoke;
//     retrying changes nothing. Returned as-is.
//
// Not fault-tolerant: Free (destroys shared state other workers depend on;
// a retry racing a concurrent Create could destroy the successor).

// supervisedClientIDs hands out process-local default client IDs. Jobs with
// multiple processes MUST set SupervisedConfig.ClientID themselves (e.g.
// rank+1): the dedup table is keyed by ID, and two processes sharing an ID
// would swallow each other's pushes as duplicates.
var supervisedClientIDs atomic.Uint64

// SupervisedConfig configures a SupervisedClient. Zero values get the
// documented defaults.
type SupervisedConfig struct {
	// Addr is the server address, re-dialed on every reconnect.
	Addr string
	// Dial overrides how connections are established: the shm transport
	// dials its unix control socket and says hello here, tests inject
	// faulty transports. Default: Dial(addr).
	Dial func(addr string) (*StreamClient, error)
	// OpTimeout bounds each round trip (default 10s; <0 disables).
	OpTimeout time.Duration
	// MaxAttempts bounds tries per logical operation, dial included
	// (default 10).
	MaxAttempts int
	// BackoffBase is the first reconnect delay (default 20ms); successive
	// attempts double it up to BackoffMax (default 1s), each halved-jittered
	// so a herd of workers reconnecting after a server restart spreads out.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the jitter PRNG (deterministic tests).
	Seed uint64
	// ClientID keys the server-side push dedup. 0 draws a process-local
	// unique ID; multi-process jobs must set it (rank+1).
	ClientID uint64
	// Metrics, when set, receives the recovery counters
	// (smb_supervised_*; instrument.go).
	Metrics *telemetry.Registry
	// Trace negotiates the trace extension on every connection, reconnects
	// included; against an old server the client silently runs untraced.
	Trace bool
}

// SupervisedStats snapshots a client's recovery counters.
type SupervisedStats struct {
	Reconnects int64 // connections established after the first
	Retries    int64 // operation attempts beyond the first
	Timeouts   int64 // attempts that failed on a fired deadline
	DupAcks    int64 // pushes acknowledged as server-side duplicates
	Pushes     int64 // logical pushes applied exactly once (the invariant LHS)
}

// SupervisedClient wraps the SMB wire protocol with reconnect-and-retry
// supervision. Like StreamClient it is safe for concurrent use, with
// operations serialized on one connection.
type SupervisedClient struct {
	verbs // the Client verb set, encoded through do

	cfg SupervisedConfig

	mu   sync.Mutex
	conn *StreamClient // guarded by mu; nil while disconnected
	// keys is the client's own handle directory: public Handle → server
	// SHMKey. It is what survives a crash — handles the caller holds stay
	// valid across reconnects because they resolve through this map, not
	// through server state.
	keys       map[Handle]SHMKey // guarded by mu
	remote     map[Handle]Handle // guarded by mu; public → current conn's handle, cleared on reconnect
	nextHandle Handle            // guarded by mu
	seq        uint64            // guarded by mu; stamp for the next push
	rng        uint64            // guarded by mu; jitter PRNG state

	closed    bool // guarded by mu
	connected bool // guarded by mu; a connection has succeeded at least once

	// tc is the caller's current trace context, re-stamped onto each fresh
	// connection so propagation survives reconnects.
	tc TraceContext // guarded by mu

	reconnects atomic.Int64
	retries    atomic.Int64
	timeouts   atomic.Int64
	dupAcks    atomic.Int64
	pushes     atomic.Int64

	inst *supervisedInstruments // immutable after construction; nil = uninstrumented
}

var _ Client = (*SupervisedClient)(nil)

// NewSupervisedClient returns a supervised client. The first connection is
// established lazily, so constructing one against a down server succeeds —
// the first operation pays the reconnect.
func NewSupervisedClient(cfg SupervisedConfig) *SupervisedClient {
	if cfg.Dial == nil {
		cfg.Dial = Dial
	}
	cfg.OpTimeout = opTimeoutOrDefault(cfg.OpTimeout)
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 10
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 20 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Second
	}
	if cfg.ClientID == 0 {
		cfg.ClientID = supervisedClientIDs.Add(1)
	}
	c := &SupervisedClient{
		cfg:    cfg,
		keys:   make(map[Handle]SHMKey),
		remote: make(map[Handle]Handle),
		rng:    cfg.Seed ^ cfg.ClientID,
	}
	c.d = c
	if cfg.Metrics != nil {
		c.inst = newSupervisedInstruments(cfg.Metrics, &c.pushes)
	}
	return c
}

// opTimeoutOrDefault resolves a configured per-op budget: 0 → 10s, < 0 → no
// deadline. Every dial path shares it, so DialAuto's negotiation probe can
// never hang forever where the client it negotiates for would have timed
// out.
func opTimeoutOrDefault(d time.Duration) time.Duration {
	switch {
	case d == 0:
		return 10 * time.Second
	case d < 0:
		return 0
	}
	return d
}

// ClientID returns the dedup identity pushes are stamped with.
func (c *SupervisedClient) ClientID() uint64 { return c.cfg.ClientID }

// Stats snapshots the recovery counters.
func (c *SupervisedClient) Stats() SupervisedStats {
	return SupervisedStats{
		Reconnects: c.reconnects.Load(),
		Retries:    c.retries.Load(),
		Timeouts:   c.timeouts.Load(),
		DupAcks:    c.dupAcks.Load(),
		Pushes:     c.pushes.Load(),
	}
}

// Close implements Client. A closed client fails every later operation.
func (c *SupervisedClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

// errClientClosed distinguishes caller-initiated Close from failures.
var errClientClosed = errors.New("smb: supervised client closed")

// ensureLocked returns a live connection, dialing if necessary. Caller
// holds c.mu. Dial failures are NOT retried here — withRetry owns the
// backoff schedule, so a dead server costs one failed attempt per loop
// iteration like any other transport error.
func (c *SupervisedClient) ensureLocked() (*StreamClient, error) {
	if c.closed {
		return nil, errClientClosed
	}
	if c.conn != nil {
		return c.conn, nil
	}
	sc, err := c.cfg.Dial(c.cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("smb supervised dial: %w", err)
	}
	sc.SetTimeouts(c.cfg.OpTimeout)
	if c.cfg.Trace {
		// Re-negotiate on every fresh connection — the grant is per-conn
		// state on the server. A transport failure here counts as a failed
		// dial; an old server just leaves the connection untraced.
		if _, err := sc.NegotiateTrace(); err != nil {
			sc.Close()
			return nil, fmt.Errorf("smb supervised hello: %w", err)
		}
		sc.SetTraceContext(c.tc)
	}
	// Fresh connection, fresh server-side handle table: the Fig. 2 attach
	// exchange replays lazily via remoteLocked as handles are next used.
	c.conn = sc
	for h := range c.remote {
		delete(c.remote, h)
	}
	if c.connected {
		// Only re-connections count: the lazy first dial is the normal
		// bootstrap, not a recovery.
		n := c.reconnects.Add(1)
		telemetry.RecordEvent(telemetry.EvReconnect, int64(c.cfg.ClientID), n, 0)
		if c.inst != nil {
			c.inst.reconnects.Inc()
		}
	}
	c.connected = true
	return sc, nil
}

// connect establishes the first connection now, single-shot: a dialer
// that must fail fast on an unreachable or unwilling server (DialShmConfig)
// calls it instead of letting the first verb pay the retry schedule.
func (c *SupervisedClient) connect() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.ensureLocked()
	return err
}

// SetTraceContext implements Client. The context survives reconnects: every
// fresh connection is re-stamped with it.
func (c *SupervisedClient) SetTraceContext(tc TraceContext) {
	c.mu.Lock()
	c.tc = tc
	if c.conn != nil {
		c.conn.SetTraceContext(tc)
	}
	c.mu.Unlock()
}

// ClearTraceContext implements Client.
func (c *SupervisedClient) ClearTraceContext() {
	c.mu.Lock()
	c.tc = TraceContext{}
	if c.conn != nil {
		c.conn.ClearTraceContext()
	}
	c.mu.Unlock()
}

// dropLocked discards the connection after a transport failure.
func (c *SupervisedClient) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// retryable reports whether err warrants a reconnect-and-retry.
func retryable(err error) bool { return errors.Is(err, ErrTransport) }

// backoffLocked sleeps the attempt-th reconnect delay (half-jittered
// exponential: d/2 + uniform(0, d/2]). Caller holds c.mu — deliberately, so
// a concurrent caller cannot slip in and race the reconnect.
func (c *SupervisedClient) backoffLocked(attempt int) {
	d := c.cfg.BackoffBase << uint(attempt)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	// splitmix64 step (Vigna): one multiply-xor chain per draw, seeded per
	// client so a worker herd's schedules decorrelate deterministically.
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	frac := float64(z>>11) / float64(1<<53)
	time.Sleep(d/2 + time.Duration(frac*float64(d/2)))
}

// withRetry runs op against a live connection, reconnecting and retrying on
// transport failures up to MaxAttempts. Caller holds c.mu for the whole
// schedule: operations on a supervised client serialize exactly like on the
// StreamClient underneath.
func (c *SupervisedClient) withRetry(verb string, op func(sc *StreamClient) error) error {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			if c.inst != nil {
				c.inst.retries.Inc()
			}
			c.backoffLocked(attempt - 1)
		}
		sc, err := c.ensureLocked()
		if err != nil {
			if errors.Is(err, errClientClosed) {
				return err
			}
			lastErr = err
			continue
		}
		err = op(sc)
		if err == nil {
			return nil
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			c.timeouts.Add(1)
			telemetry.RecordEvent(telemetry.EvDeadlineFired, int64(c.cfg.ClientID), 0, 0)
			if c.inst != nil {
				c.inst.timeouts.Inc()
			}
		}
		if !retryable(err) {
			return err
		}
		lastErr = err
		c.dropLocked()
	}
	telemetry.RecordEvent(telemetry.EvRetriesExhausted, int64(c.cfg.ClientID), int64(c.cfg.MaxAttempts), 0)
	return fmt.Errorf("smb supervised %s: %d attempts exhausted: %w", verb, c.cfg.MaxAttempts, lastErr)
}

// resolveLocked maps a public handle to the current connection's handle,
// replaying Attach on the fresh connection when needed.
func (c *SupervisedClient) resolveLocked(sc *StreamClient, h Handle) (Handle, error) {
	if rh, ok := c.remote[h]; ok {
		return rh, nil
	}
	key, ok := c.keys[h]
	if !ok {
		return 0, fmt.Errorf("smb supervised: %w: handle %d", ErrUnknownHandle, h)
	}
	rh, err := sc.Attach(key)
	if err != nil {
		return 0, err
	}
	c.remote[h] = rh //lint:ignore hotalloc re-attach runs once per handle per reconnect; steady state hits the cache lookup above
	return rh, nil
}

// withHandle runs op under the retry schedule with h resolved to the live
// connection's handle — the shape of every handle-bearing verb, here and in
// the shm overlay (shmclient.go).
func (c *SupervisedClient) withHandle(verb string, h Handle, op func(sc *StreamClient, rh Handle) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.withRetry(verb, func(sc *StreamClient) error {
		rh, err := c.resolveLocked(sc, h)
		if err != nil {
			return err
		}
		return op(sc, rh)
	})
}

// publishLocked mints a public handle for key.
func (c *SupervisedClient) publishLocked(key SHMKey, rh Handle) Handle {
	c.nextHandle++
	h := c.nextHandle
	c.keys[h] = key
	c.remote[h] = rh
	return h
}

// do implements doer under the retry policy: lock → withRetry → resolve the
// words the opTable row marks as handles → the connection's do. Every verb
// routed through the retry loop is idempotent (fixed-range Read/Write,
// Lookup, the snapshot verbs) or deduped (opSeqAccumulate); the arms that
// differ are spelled here, once:
//
//   - Create: a retried Create may find its own first attempt's segment, so
//     ErrSegmentExists after the first attempt resolves to Lookup of the
//     (durable) segment — idempotent create, which a restarted worker needs
//     anyway.
//   - Attach returns the client's own handle, valid across reconnects (the
//     server-side attach replays lazily via resolveLocked).
//   - Detach drops the local mapping first; the server side is best-effort.
//   - Free is single-shot: it destroys shared state, and a retry racing a
//     concurrent re-Create could free the successor segment.
//   - Accumulate goes out as opSeqAccumulate, stamped once before the retry
//     loop — every retry replays the SAME sequence number, which is the
//     whole point (a bare retried ACCUMULATE could double-apply, corrupting
//     Wg worse than losing the push; seq.go).
//   - Snapshot: a retry whose first attempt succeeded server-side but lost
//     its reply leaks that cut until the store is torn down — bounded by the
//     retry budget, visible in smb_snapshots_live. SnapIDs do not survive a
//     server restart: SnapRead then returns ErrUnknownSnapshot and the caller
//     retakes the cut.
//   - SnapRelease of an unknown id is success: either an earlier attempt's
//     release landed before its reply was lost, or the server restarted and
//     the snapshot died with it — the pin is gone, which is all the caller
//     wants.
func (c *SupervisedClient) do(cl call) (reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, err := c.doLocked(cl)
	if cl.op == opAttach && err == nil {
		// Minted here, not in doLocked: growing the handle directory is the
		// one arm that allocates, and doLocked is the push's hot path.
		r.w[0] = uint64(c.publishLocked(SHMKey(cl.w[0]), Handle(r.w[0])))
	}
	return r, err
}

// doLocked is do under a lock the caller already holds (WriteAccumulate
// runs its two calls under one hold).
func (c *SupervisedClient) doLocked(cl call) (r reply, err error) {
	if cl.op == opDetach {
		return r, c.detachLocked(Handle(cl.w[0]), nil)
	}
	if cl.op == opFree {
		sc, err := c.ensureLocked()
		if err != nil {
			return r, err
		}
		if r, err = sc.do(cl); retryable(err) {
			c.dropLocked()
		}
		return r, err
	}
	if cl.op == opAccumulate {
		c.seq++
		cl.op, cl.w[2], cl.w[3] = opSeqAccumulate, c.cfg.ClientID, c.seq
	}
	spec, err := specOf(cl.op)
	if err != nil {
		return r, err
	}
	attempt := 0
	//lint:ignore hotalloc wire path: one closure per round trip, reached from the shm hot path only when a handle is not mapped
	err = c.withRetry(spec.name, func(sc *StreamClient) error {
		attempt++
		q := cl
		for i := 0; i < spec.words; i++ {
			if spec.handles&(1<<i) == 0 {
				continue
			}
			rh, err := c.resolveLocked(sc, Handle(cl.w[i]))
			if err != nil {
				return err
			}
			q.w[i] = uint64(rh)
		}
		var err error
		r, err = sc.do(q)
		if cl.op == opCreate && attempt > 1 && errors.Is(err, ErrSegmentExists) {
			r, err = sc.do(call{op: opLookup, str: cl.str})
		}
		return err
	})
	if cl.op == opSnapRelease && errors.Is(err, ErrUnknownSnapshot) {
		return r, nil
	}
	if err != nil {
		return r, err
	}
	if cl.op == opSeqAccumulate {
		c.pushes.Add(1)
		if r.w[0] == 0 {
			c.dupAcks.Add(1)
			if c.inst != nil {
				c.inst.dupAcks.Inc()
			}
		}
	}
	return r, nil
}

// detach is Detach with an optional verb to run first against the live
// connection's handle, on the same best-effort single-shot terms (the shm
// overlay retires its mapping's server-side accounting with it).
func (c *SupervisedClient) detach(h Handle, pre func(sc *StreamClient, rh Handle) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.detachLocked(h, pre)
}

// detachLocked: the local mapping always goes; the server-side detach is
// best-effort (a dead connection already detached it).
func (c *SupervisedClient) detachLocked(h Handle, pre func(sc *StreamClient, rh Handle) error) error {
	if _, ok := c.keys[h]; !ok {
		return fmt.Errorf("smb supervised: %w: handle %d", ErrUnknownHandle, h)
	}
	rh, attached := c.remote[h]
	delete(c.keys, h)
	delete(c.remote, h)
	if !attached || c.conn == nil {
		return nil
	}
	if pre != nil {
		if err := pre(c.conn, rh); retryable(err) {
			c.dropLocked()
			return nil
		}
	}
	if err := c.conn.Detach(rh); err != nil {
		if !retryable(err) {
			return err
		}
		c.dropLocked()
	}
	return nil
}

// WriteAccumulate implements Client — the supervised form of the worker
// push (Fig. 6 T.A2+T.A3), as the two-phase recipe that is safe to retry,
// under one hold of the lock:
//
//	Write(src, 0, data)   — idempotent staging into the private ΔWx segment
//	SeqAccumulate(dst,src) — deduped fold into Wg
func (c *SupervisedClient) WriteAccumulate(dst, src Handle, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.doLocked(call{op: opWrite, w: [4]uint64{uint64(src)}, body: data}); err != nil {
		return err
	}
	_, err := c.doLocked(call{op: opAccumulate, w: [4]uint64{uint64(dst), uint64(src)}})
	return err
}
