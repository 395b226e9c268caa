package smb

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"shmcaffe/internal/telemetry"
)

// Server exposes a Store over TCP — the process playing the role of the
// paper's dedicated memory server (the machine with 256 GB RAM and an
// Infiniband HCA). Connections are handled concurrently; Accumulates from
// different connections proceed in parallel per 64 KiB stripe while the
// Store's chunk locks preserve exact accumulation (see Store.Accumulate).
type Server struct {
	store *Store
	ln    net.Listener

	done chan struct{} // closed by Close; connDone reads it to tell shutdown from failure

	mu     sync.Mutex
	conns  map[io.Closer]struct{}           // guarded by mu
	closed bool                             // guarded by mu
	logf   func(format string, args ...any) // guarded by mu
	wg     sync.WaitGroup

	connErrors atomic.Int64 // handler loops that exited on a transport error
	active     atomic.Int64 // live connection handlers

	// tracer, when installed via SetTracer, records server-side spans
	// (dispatch, accumulate apply) — with trace propagation they become
	// children of the client span that sent the frame. Atomic so chaos frontends can share one tracer across server
	// incarnations without racing the handler loops.
	tracer      atomic.Pointer[telemetry.Tracer]
	dispatchLat atomic.Pointer[telemetry.Histogram]
	traceTIDs   atomic.Int32 // connection track ids handed out, see serverTIDBase

	// Shared-memory control plane (shmctl.go): the advertised unix socket
	// path, the lease counter (client leases start at 2), and how many live
	// connections negotiated the zero-copy transport.
	shmPath   atomic.Value
	shmLeases atomic.Uint32
	activeShm atomic.Int64
}

// serverTIDBase offsets server connection tracks away from the worker
// main/update tids (2*rank, 2*rank+1), so a merged per-process trace keeps
// the two families visually separate.
const serverTIDBase int32 = 1000

// serverSpanSalt marks span ids minted by a server process; workers salt
// with (rank+1)<<48, so merged traces never collide.
const serverSpanSalt uint64 = 1 << 63

// NewServer returns a server around store listening on addr
// (e.g. "127.0.0.1:0"). Serve must be called to accept connections.
func NewServer(store *Store, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("smb server listen: %w", err)
	}
	return NewServerFromListener(store, ln), nil
}

// NewServerFromListener returns a server accepting from an existing
// listener — the seam for wrapping the accept path (fault injection,
// custom transports). The server owns ln from here on.
func NewServerFromListener(store *Store, ln net.Listener) *Server {
	return &Server{
		store: store,
		ln:    ln,
		done:  make(chan struct{}),
		conns: make(map[io.Closer]struct{}),
	}
}

// SetLogf installs a logger for abnormal per-connection handler exits
// (broken pipes mid-frame). Nil (the default) keeps the server silent; the
// counters still advance either way.
func (s *Server) SetLogf(logf func(format string, args ...any)) {
	s.mu.Lock()
	s.logf = logf
	s.mu.Unlock()
}

// SetTracer installs a span tracer on the server: every request frame then
// records a srv.dispatch span, and the accumulate arms record their own
// nested spans. With a tracer installed the server also grants
// the trace feature to clients negotiating via opHello, linking those spans
// to the client side. Safe to call while serving; nil uninstalls.
func (s *Server) SetTracer(tr *telemetry.Tracer) { s.tracer.Store(tr) }

// ConnErrors returns how many connection handlers exited on a transport
// error (as opposed to a clean close between frames).
func (s *Server) ConnErrors() int64 { return s.connErrors.Load() }

// Addr returns the listener's address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Store returns the backing segment store.
func (s *Server) Store() *Store { return s.store }

// Serve accepts connections until Close is called. It always returns a
// non-nil error; after Close it returns net.ErrClosed.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func(conn net.Conn) {
			defer s.wg.Done()
			s.handleConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}(conn)
	}
}

// ServeConn serves the SMB protocol on one already-established stream
// connection of any transport (TCP, in-process pipe, the RDS-like
// datagram transport in internal/rds...). It blocks until the connection
// fails or the server closes, and closes rwc on return.
func (s *Server) ServeConn(rwc io.ReadWriteCloser) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		rwc.Close()
		return
	}
	s.conns[rwc] = struct{}{}
	s.mu.Unlock()
	s.wg.Add(1)
	defer s.wg.Done()
	s.handleConn(rwc)
	s.mu.Lock()
	delete(s.conns, rwc)
	s.mu.Unlock()
}

// Close stops the listener, closes all connections, and waits for handlers
// to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// connState is the per-connection scratch a handler loop reuses frame to
// frame: the inbound frame body, the outbound payload builder, and the
// bulk-read buffer. Pooled so steady-state Read/Write/Accumulate service
// allocates nothing per op.
type connState struct {
	in   []byte      // inbound frame scratch (readFrameInto)
	out  []byte      // opRead response scratch, grow-only
	fw   frameWriter // outbound payload builder, reset per frame
	wire []byte      // outbound frame staging (writeFrameInto)
	vw   vecWriter   // registered iovec list for vectored bulk replies (sg.go)

	// tc is the trace context of the request currently being dispatched
	// (zero = untraced). cur is the server's own dispatch-span context,
	// which the arm spans parent onto. Single handler goroutine; no lock.
	tc  TraceContext
	cur telemetry.TraceContext
	// tid is the telemetry track assigned to this connection (0 = none yet;
	// assigned lazily on the first dispatch with a tracer installed).
	tid int32

	// conn is the live connection, visible to dispatch arms that care about
	// the transport's capabilities (fd passing needs a unix socket).
	conn io.ReadWriteCloser
	// lease is the shm lease granted by opShmHello (0 = none). A connection
	// dying with a lease gets its shared stripe-lock words reaped.
	lease uint32
	// passFD, when ≥ 0, is a segment fd the handler must send as ancillary
	// data immediately after the current reply frame (opShmMap).
	passFD int
	// shmMaps tracks the mapped-file bytes this connection handed out via
	// opShmMap (remote handle → bytes, accumulated across re-maps). It is
	// what makes opShmUnmap reject unmaps of handles this connection never
	// mapped, and what connDone reconciles out of the map-bytes gauge when
	// a peer dies without unmapping. Single handler goroutine; no lock.
	shmMaps map[Handle]int64
}

var connStatePool = sync.Pool{New: func() any { return new(connState) }}

func (s *Server) handleConn(conn io.ReadWriteCloser) {
	defer conn.Close()
	s.active.Add(1)
	defer s.active.Add(-1)
	cs := connStatePool.Get().(*connState)
	cs.tc = TraceContext{}
	cs.cur = telemetry.TraceContext{}
	cs.tid = 0
	cs.conn = conn
	cs.lease = 0
	cs.passFD = -1
	clear(cs.shmMaps)
	defer connStatePool.Put(cs)
	defer func() { cs.conn = nil }()
	for {
		op, payload, err := readFrameInto(conn, &cs.in)
		if err != nil {
			s.connDone(cs, err)
			return
		}
		cs.tc = TraceContext{}
		if op&traceFlagBit != 0 {
			// A truncated trace header is connection-fatal, never an error
			// reply: the peer's framing cannot be trusted past it.
			tc, body, perr := parseTraceExt(payload)
			if perr != nil {
				s.connDone(cs, perr)
				return
			}
			cs.tc, payload = tc, body
			op &^= traceFlagBit
		}
		resp, err := s.dispatch(opcode(op), payload, cs)
		if err != nil {
			cs.fw.buf = cs.fw.buf[:0]
			cs.fw.str(err.Error())
			if werr := writeFrameInto(conn, statusErr, cs.fw.buf, &cs.wire); werr != nil {
				s.connDone(cs, werr)
				return
			}
			continue
		}
		var werr error
		if len(resp) >= sgMinPayload && connWritev(conn) {
			// Bulk replies (vectored stripe reads) go out as header+payload
			// in one writev instead of staging the payload a second time.
			werr = writeFrameVec(conn, statusOK, resp, &cs.vw, &cs.wire)
		} else {
			werr = writeFrameInto(conn, statusOK, resp, &cs.wire)
		}
		if werr != nil {
			s.connDone(cs, werr)
			return
		}
		if cs.passFD >= 0 {
			// The fd announced by the reply just written goes out before the
			// next request is read — the client is blocked on recvmsg for it.
			fd := cs.passFD
			cs.passFD = -1
			if err := sendConnFD(conn, fd); err != nil {
				s.connDone(cs, err)
				return
			}
		}
	}
}

// connDone classifies a handler-loop exit. The seed dropped every exit
// silently, which hid real failures (workers dying mid-push, frames
// truncated by the network) behind the same silence as a clean shutdown.
// A clean close — io.EOF exactly between frames, or any error during
// server shutdown — stays silent; everything else advances connErrors and
// hits the optional log.
func (s *Server) connDone(cs *connState, err error) {
	if cs.lease != 0 {
		// Crash-safety of the shared locks: whatever stripe words the dead
		// peer still holds are force-released so the job keeps making
		// progress (the half-applied push is a partial gradient, which
		// SEASGD tolerates — DESIGN.md §16).
		if n := s.store.ReapShmLease(cs.lease); n > 0 {
			telemetry.RecordEvent(telemetry.EvShmLeaseReaped, int64(cs.lease), int64(n), 0)
		}
		s.activeShm.Add(-1)
		cs.lease = 0
	}
	if len(cs.shmMaps) != 0 {
		// Mappings the peer never unmapped: the memory itself is released
		// by the dead process's munmap (or its exit), but the gauge share
		// this connection handed out is reconciled here.
		var b int64
		for _, n := range cs.shmMaps {
			b += n
		}
		s.store.shmc.mapBytes.Add(-b)
		clear(cs.shmMaps)
	}
	select {
	case <-s.done:
		return // shutdown breaks every connection, by design
	default:
	}
	if errors.Is(err, io.EOF) {
		return // clean close at a frame boundary
	}
	telemetry.RecordEvent(telemetry.EvConnError, s.connErrors.Add(1), 0, 0)
	s.mu.Lock()
	logf := s.logf
	s.mu.Unlock()
	if logf != nil {
		logf("smb: connection handler exited: %v", err)
	}
}

// dispatch decodes and executes one request. The returned payload may alias
// cs scratch and is valid until the next dispatch on the same connection.
// With a tracer installed it wraps the work in a srv.dispatch span: a child
// of the client span when the frame carried a trace context, a plain local
// span otherwise.
func (s *Server) dispatch(op opcode, payload []byte, cs *connState) ([]byte, error) {
	tr := s.tracer.Load()
	if tr == nil {
		cs.cur = telemetry.TraceContext{}
		return s.dispatchOp(op, payload, cs)
	}
	if cs.tid == 0 {
		cs.tid = serverTIDBase + s.traceTIDs.Add(1)
		tr.NameThread(cs.tid, fmt.Sprintf("smb-conn-%d", cs.tid-serverTIDBase))
	}
	cs.cur = telemetry.TraceContext{}
	if cs.tc.TraceID != 0 {
		cs.cur = telemetry.TraceContext{
			TraceID: cs.tc.TraceID,
			SpanID:  telemetry.NextSpanID(serverSpanSalt),
			Parent:  cs.tc.SpanID,
		}
	}
	sp := tr.BeginTraced(cs.tid, telemetry.PhaseSrvDispatch, cs.cur)
	if h := s.dispatchLat.Load(); h != nil {
		sp = sp.ObserveInto(h)
	}
	resp, err := s.dispatchOp(op, payload, cs)
	sp.End()
	return resp, err
}

// armSpan opens a nested span for one dispatch arm (accumulate apply). It
// parents onto the connection's current dispatch span when that span is
// part of a propagated trace. Returns the inert zero Span when
// no tracer is installed, so arms call it unconditionally.
func (s *Server) armSpan(cs *connState, p telemetry.Phase) telemetry.Span {
	tr := s.tracer.Load()
	if tr == nil {
		return telemetry.Span{}
	}
	var tc telemetry.TraceContext
	if cs.cur.TraceID != 0 {
		tc = telemetry.TraceContext{
			TraceID: cs.cur.TraceID,
			SpanID:  telemetry.NextSpanID(serverSpanSalt),
			Parent:  cs.cur.SpanID,
		}
	}
	return tr.BeginTraced(cs.tid, p, tc)
}

// dispatchOp is the opcode switch behind dispatch.
func (s *Server) dispatchOp(op opcode, payload []byte, cs *connState) ([]byte, error) {
	fr := frameReader{buf: payload}
	fw := &cs.fw
	fw.buf = fw.buf[:0]
	switch op {
	//lint:ignore wireproto control-plane verb: one frame per session/segment, not a data-path latency
	case opCreate:
		name := fr.str()
		size := fr.u64()
		if fr.err != nil {
			return nil, fr.err
		}
		key, err := s.store.Create(name, int(size))
		if err != nil {
			return nil, err
		}
		return fw.u64(uint64(key)).buf, nil
	//lint:ignore wireproto control-plane verb: one frame per session/segment, not a data-path latency
	case opLookup:
		name := fr.str()
		if fr.err != nil {
			return nil, fr.err
		}
		key, err := s.store.Lookup(name)
		if err != nil {
			return nil, err
		}
		return fw.u64(uint64(key)).buf, nil
	//lint:ignore wireproto control-plane verb: one frame per session/segment, not a data-path latency
	case opAttach:
		key := fr.u64()
		if fr.err != nil {
			return nil, fr.err
		}
		h, err := s.store.Attach(SHMKey(key))
		if err != nil {
			return nil, err
		}
		return fw.u64(uint64(h)).buf, nil
	//lint:ignore wireproto control-plane verb: one frame per session/segment, not a data-path latency
	case opDetach:
		h := fr.u64()
		if fr.err != nil {
			return nil, fr.err
		}
		return nil, s.store.Detach(Handle(h))
	//lint:ignore wireproto control-plane verb: one frame per session/segment, not a data-path latency
	case opFree:
		key := fr.u64()
		if fr.err != nil {
			return nil, fr.err
		}
		return nil, s.store.Free(SHMKey(key))
	case opRead:
		h := fr.u64()
		off := fr.u64()
		n := fr.u64()
		if fr.err != nil {
			return nil, fr.err
		}
		if n > maxFrame {
			return nil, ErrFrameTooLarge
		}
		if uint64(cap(cs.out)) < n {
			cs.out = make([]byte, n)
		}
		dst := cs.out[:n]
		if err := s.store.Read(Handle(h), int(off), dst); err != nil {
			return nil, err
		}
		return dst, nil
	case opWrite:
		h := fr.u64()
		off := fr.u64()
		data := fr.rest()
		if fr.err != nil {
			return nil, fr.err
		}
		return nil, s.store.Write(Handle(h), int(off), data)
	case opAccumulate:
		dst := fr.u64()
		src := fr.u64()
		if fr.err != nil {
			return nil, fr.err
		}
		sp := s.armSpan(cs, telemetry.PhaseSrvAcc)
		err := s.store.Accumulate(Handle(dst), Handle(src))
		sp.End()
		return nil, err
	case opSeqAccumulate:
		dst := fr.u64()
		src := fr.u64()
		client := fr.u64()
		seq := fr.u64()
		if fr.err != nil {
			return nil, fr.err
		}
		sp := s.armSpan(cs, telemetry.PhaseSrvAcc)
		applied, err := s.store.SeqAccumulate(Handle(dst), Handle(src), client, seq)
		sp.End()
		if err != nil {
			return nil, err
		}
		var v uint64
		if applied {
			v = 1
		}
		return fw.u64(v).buf, nil
	//lint:ignore wireproto control-plane verb: one frame per session/segment, not a data-path latency
	case opHello:
		want := fr.u64()
		if fr.err != nil {
			return nil, fr.err
		}
		// Grant only what this server can honor: the trace feature needs an
		// installed tracer (otherwise the header would be parsed and thrown
		// away — better to tell the client not to pay for stamping).
		var granted uint64
		if s.tracer.Load() != nil {
			granted = want & helloFeatureTrace
		}
		return fw.u64(granted).buf, nil
	default:
		return s.dispatchShm(op, payload, cs)
	}
}

// StreamClient speaks the SMB wire protocol over one stream connection of
// any transport (TCP via Dial, or anything implementing
// io.ReadWriteCloser via NewStreamClient). It is safe for concurrent use;
// requests serialize on the connection, matching one RDMA queue pair's
// ordering. Request building and response parsing run inside the
// connection lock against per-client grow-only scratch buffers, so
// steady-state verbs allocate nothing.
type StreamClient struct {
	mu   sync.Mutex
	conn io.ReadWriteCloser
	req  frameWriter        // request payload builder, guarded by mu
	in   []byte             // response frame scratch, guarded by mu
	wire []byte             // request frame staging, guarded by mu
	inst *clientInstruments // optional RTT timing, guarded by mu

	opTimeout time.Duration // guarded by mu; 0 = block forever (seed behavior)
	broken    error         // guarded by mu; first transport failure latches here

	// vw is the registered, grow-only iovec list of the vectored bulk
	// write (sg.go), guarded by mu.
	vw vecWriter

	// traceOK is set by NegotiateTrace when the server granted the trace
	// feature; tc is the context stamped on outgoing requests while nonzero.
	// Both guarded by mu. Requests are only ever trace-flagged when both
	// hold, so an un-negotiated peer never sees the extension.
	traceOK bool
	tc      TraceContext
}

var _ Client = (*StreamClient)(nil)

// ErrTransport marks StreamClient failures where the transport itself broke
// or timed out — as opposed to the server answering with an error. After a
// transport failure the request/response framing is unknowable, so the
// client poisons itself: the connection is closed and every later call
// fails fast wrapping the original cause. ErrTransport is the retry signal
// for SupervisedClient: a remote error means the server spoke and retrying
// the same request changes nothing; a transport error means a reconnect
// might.
var ErrTransport = errors.New("smb: transport failure")

// dialTimeout bounds connection establishment: a dead or partitioned server
// should fail a dial quickly, not strand it in the kernel's multi-minute
// SYN retry schedule.
const dialTimeout = 10 * time.Second

// Dial connects to an SMB server over TCP.
func Dial(addr string) (*StreamClient, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("smb dial %s: %w: %w", addr, ErrTransport, err)
	}
	return &StreamClient{conn: conn}, nil
}

// SetTimeouts bounds every round trip on the client to op (0 restores
// block-forever). A deadline that fires poisons the client — an abandoned
// round trip leaves an unpaired response in flight, so the connection
// cannot be reused — and the call fails with an error matching both
// ErrTransport and os.ErrDeadlineExceeded.
func (c *StreamClient) SetTimeouts(op time.Duration) {
	c.mu.Lock()
	c.opTimeout = op
	c.mu.Unlock()
}

// deadlineConn is the deadline surface of net.Conn. Transports without one
// (in-process pipes) silently ignore configured timeouts.
type deadlineConn interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// poisonLocked latches the first transport failure and kills the
// connection. Caller holds c.mu.
func (c *StreamClient) poisonLocked(err error) error {
	if c.broken == nil {
		c.broken = err
		c.conn.Close()
	}
	return err
}

// NewStreamClient wraps an established connection of any transport.
func NewStreamClient(rwc io.ReadWriteCloser) *StreamClient {
	return &StreamClient{conn: rwc} //lint:ignore hotalloc one allocation per established connection; hot paths reach this only through the cold redial recovery branch
}

// Close implements Client.
func (c *StreamClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// beginLocked resets the request builder for a new call. The caller must
// hold c.mu (every verb method locks, builds, then round-trips).
func (c *StreamClient) beginLocked() *frameWriter {
	c.req.buf = c.req.buf[:0]
	return &c.req
}

// roundTripLocked performs one synchronous RPC with c.req.buf as the
// request payload. The returned payload aliases the client's scratch and
// must be consumed before c.mu is released. Caller holds c.mu.
//
// Any transport failure — write error, read error, or a fired deadline —
// poisons the client: the framing state of the connection is unknown, so
// reuse could pair a stale response with a fresh request.
func (c *StreamClient) roundTripLocked(op opcode) ([]byte, error) {
	return c.roundTripBodyLocked(op, nil)
}

// roundTripBodyLocked is roundTripLocked with an optional bulk body that
// goes out vectored (see sendLocked).
func (c *StreamClient) roundTripBodyLocked(op opcode, body []byte) ([]byte, error) {
	if err := c.sendLocked(op, body); err != nil {
		return nil, err
	}
	return c.readReplyLocked()
}

// sendLocked writes one request frame with c.req.buf as its payload. When
// body is non-nil the frame goes out as one vectored write of the staged
// header+head and the caller's body — header and payload in a single
// writev, no staging copy of the bulk bytes (sg.go). Caller holds c.mu.
//
//shm:hotpath
func (c *StreamClient) sendLocked(op opcode, body []byte) error {
	if c.broken != nil {
		return fmt.Errorf("smb: connection poisoned: %w", c.broken)
	}
	dc, deadlines := c.conn.(deadlineConn)
	deadlines = deadlines && c.opTimeout > 0
	if deadlines {
		dc.SetWriteDeadline(time.Now().Add(c.opTimeout))
	}
	var err error
	switch {
	case body != nil:
		err = c.writeFrameVecLocked(byte(op), body)
	case c.traceOK && c.tc.TraceID != 0 && op != opHello:
		err = writeFrameTracedInto(c.conn, byte(op), c.req.buf, c.tc, &c.wire)
	default:
		err = writeFrameInto(c.conn, byte(op), c.req.buf, &c.wire)
	}
	if err != nil {
		return c.poisonLocked(fmt.Errorf("smb request: %w: %w", ErrTransport, err))
	}
	if deadlines {
		dc.SetWriteDeadline(time.Time{})
	}
	return nil
}

// readReplyLocked reads and classifies one reply frame — the shared tail
// of every round trip. Caller holds c.mu.
func (c *StreamClient) readReplyLocked() ([]byte, error) {
	dc, deadlines := c.conn.(deadlineConn)
	deadlines = deadlines && c.opTimeout > 0
	if deadlines {
		dc.SetReadDeadline(time.Now().Add(c.opTimeout))
	}
	status, resp, err := readFrameInto(c.conn, &c.in)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, c.poisonLocked(fmt.Errorf("smb server closed connection: %w: %w", ErrTransport, err))
		}
		return nil, c.poisonLocked(fmt.Errorf("smb response: %w: %w", ErrTransport, err))
	}
	if deadlines {
		dc.SetReadDeadline(time.Time{})
	}
	if status == statusErr {
		fr := frameReader{buf: resp}
		msg := fr.str()
		return nil, remoteError(msg)
	}
	return resp, nil
}

// knownRemoteErrors are the sentinel errors remoteError can reconstruct
// from a wire message; hoisted so the error path shares one slice instead
// of building it per reply.
var knownRemoteErrors = []error{
	ErrSegmentExists, ErrUnknownSegment, ErrUnknownHandle,
	ErrOutOfRange, ErrSizeMismatch, ErrNotFloatAligned,
	ErrUnknownSnapshot,
}

// remoteError reconstructs well-known errors from their messages so callers
// can keep using errors.Is across the wire.
func remoteError(msg string) error {
	for _, known := range knownRemoteErrors {
		if hasSuffix(msg, known.Error()) {
			return fmt.Errorf("%s: %w", msg, known)
		}
	}
	return errors.New(msg)
}

func hasSuffix(s, suffix string) bool {
	return len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix
}

// Create implements Client.
func (c *StreamClient) Create(name string, size int) (SHMKey, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.beginLocked().str(name).u64(uint64(size))
	resp, err := c.roundTripLocked(opCreate)
	if err != nil {
		return 0, err
	}
	fr := frameReader{buf: resp}
	return SHMKey(fr.u64()), fr.err
}

// Lookup implements Client.
func (c *StreamClient) Lookup(name string) (SHMKey, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.beginLocked().str(name)
	resp, err := c.roundTripLocked(opLookup)
	if err != nil {
		return 0, err
	}
	fr := frameReader{buf: resp}
	return SHMKey(fr.u64()), fr.err
}

// Attach implements Client.
func (c *StreamClient) Attach(key SHMKey) (Handle, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.beginLocked().u64(uint64(key))
	resp, err := c.roundTripLocked(opAttach)
	if err != nil {
		return 0, err
	}
	fr := frameReader{buf: resp}
	return Handle(fr.u64()), fr.err
}

// Detach implements Client.
func (c *StreamClient) Detach(h Handle) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.beginLocked().u64(uint64(h))
	_, err := c.roundTripLocked(opDetach)
	return err
}

// Free implements Client.
func (c *StreamClient) Free(key SHMKey) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.beginLocked().u64(uint64(key))
	_, err := c.roundTripLocked(opFree)
	return err
}

// Read implements Client. The reply payload lands directly in dst, with no
// staging through the response scratch (sg.go).
//
//shm:hotpath
func (c *StreamClient) Read(h Handle, off int, dst []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t0 time.Time
	if c.inst != nil {
		t0 = time.Now()
	}
	c.beginLocked().u64(uint64(h)).u64(uint64(off)).u64(uint64(len(dst)))
	err := c.roundTripReadIntoLocked(opRead, dst)
	if err == nil && c.inst != nil {
		c.inst.read.ObserveSeconds(time.Since(t0).Nanoseconds())
	}
	return err
}

// Write implements Client.
//
//shm:hotpath
func (c *StreamClient) Write(h Handle, off int, src []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t0 time.Time
	if c.inst != nil {
		t0 = time.Now()
	}
	var err error
	if len(src) >= sgMinPayload && connWritev(c.conn) {
		// Vectored request: header+head staged once, src goes out of the
		// caller's buffer in the same writev — wire bytes identical to the
		// staged path, minus the payload copy (sg.go).
		c.beginLocked().u64(uint64(h)).u64(uint64(off))
		_, err = c.roundTripBodyLocked(opWrite, src)
	} else {
		c.beginLocked().u64(uint64(h)).u64(uint64(off)).bytes(src)
		_, err = c.roundTripLocked(opWrite)
	}
	if err == nil && c.inst != nil {
		c.inst.write.ObserveSeconds(time.Since(t0).Nanoseconds())
	}
	return err
}

// Accumulate implements Client.
//
//shm:hotpath
func (c *StreamClient) Accumulate(dst, src Handle) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t0 time.Time
	if c.inst != nil {
		t0 = time.Now()
	}
	c.beginLocked().u64(uint64(dst)).u64(uint64(src))
	_, err := c.roundTripLocked(opAccumulate)
	if err == nil && c.inst != nil {
		c.inst.acc.ObserveSeconds(time.Since(t0).Nanoseconds())
	}
	return err
}

// WriteAccumulate implements Client as the two frames of the paper's push:
// a Write of data into src, then an Accumulate of src into dst. A bare
// connection has no retry, so the fold needs no sequence stamp (the
// supervised client, which does retry, sends opSeqAccumulate instead).
func (c *StreamClient) WriteAccumulate(dst, src Handle, data []byte) error {
	if err := c.Write(src, 0, data); err != nil {
		return err
	}
	return c.Accumulate(dst, src)
}
