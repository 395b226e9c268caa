package smb

import (
	"encoding/binary"
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

// dispatchOp decodes one request by its opTable row, runs the verb's arm
// and encodes the reply by the same row.
func (s *Server) dispatchOp(op opcode, payload []byte, cs *connState) ([]byte, error) {
	q, err := decodeCall(op, payload)
	if err != nil {
		return nil, err
	}
	r, err := s.serve(q, cs)
	if err != nil {
		return nil, err
	}
	spec := &opTable[op]
	if spec.rbulk {
		return r.bulk, nil
	}
	fw := &cs.fw
	fw.buf = fw.buf[:0]
	for i := 0; i < spec.rwords; i++ {
		fw.u64(r.w[i])
	}
	if spec.rstr {
		fw.str(r.str)
	}
	return fw.buf, nil
}

// words builds a reply out of its leading u64 words.
func words(w ...uint64) (r reply) {
	copy(r.w[:], w)
	return r
}

// bulkOut returns n bytes of the connection's grow-only bulk-reply scratch.
func (cs *connState) bulkOut(n uint64) ([]byte, error) {
	if n > maxFrame {
		return nil, ErrFrameTooLarge
	}
	if uint64(cap(cs.out)) < n {
		cs.out = make([]byte, n)
	}
	return cs.out[:n], nil
}

// serve is the opcode switch behind dispatchOp: each arm calls the store
// and builds the reply. The shm control verbs and the snapshot verbs chain
// from the default arm (serveShm → serveSnap).
func (s *Server) serve(q call, cs *connState) (reply, error) {
	switch q.op {
	//lint:ignore wireproto control-plane verb: one frame per session/segment, not a data-path latency
	case opCreate:
		// A size off the wire is outside input: one no frame could ever
		// fill would only make the store's make() panic.
		if q.w[0] > maxFrame {
			return reply{}, fmt.Errorf("smb: create %q with size %d: %w", q.str, q.w[0], ErrFrameTooLarge)
		}
		key, err := s.store.Create(q.str, int(q.w[0]))
		return words(uint64(key)), err
	//lint:ignore wireproto control-plane verb: one frame per session/segment, not a data-path latency
	case opLookup:
		key, err := s.store.Lookup(q.str)
		return words(uint64(key)), err
	//lint:ignore wireproto control-plane verb: one frame per session/segment, not a data-path latency
	case opAttach:
		h, err := s.store.Attach(SHMKey(q.w[0]))
		return words(uint64(h)), err
	//lint:ignore wireproto control-plane verb: one frame per session/segment, not a data-path latency
	case opDetach:
		return reply{}, s.store.Detach(Handle(q.w[0]))
	//lint:ignore wireproto control-plane verb: one frame per session/segment, not a data-path latency
	case opFree:
		return reply{}, s.store.Free(SHMKey(q.w[0]))
	case opRead:
		dst, err := cs.bulkOut(q.w[2])
		if err == nil {
			err = s.store.Read(Handle(q.w[0]), int(q.w[1]), dst)
		}
		return reply{bulk: dst}, err
	case opWrite:
		return reply{}, s.store.Write(Handle(q.w[0]), int(q.w[1]), q.body)
	case opAccumulate:
		sp := s.armSpan(cs, telemetry.PhaseSrvAcc)
		err := s.store.Accumulate(Handle(q.w[0]), Handle(q.w[1]))
		sp.End()
		return reply{}, err
	case opSeqAccumulate:
		sp := s.armSpan(cs, telemetry.PhaseSrvAcc)
		applied, err := s.store.SeqAccumulate(Handle(q.w[0]), Handle(q.w[1]), q.w[2], q.w[3])
		sp.End()
		if applied {
			return words(1), err
		}
		return words(0), err
	//lint:ignore wireproto control-plane verb: one frame per session/segment, not a data-path latency
	case opHello:
		// Grant only what this server can honor: the trace feature needs an
		// installed tracer (otherwise the header would be parsed and thrown
		// away — better to tell the client not to pay for stamping).
		var granted uint64
		if s.tracer.Load() != nil {
			granted = q.w[0] & helloFeatureTrace
		}
		return words(granted), nil
	default:
		return s.serveShm(q, cs)
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
	verbs // the Client verb set, encoded through do

	mu   sync.Mutex
	conn io.ReadWriteCloser
	in   []byte // reply payload scratch, guarded by mu
	wire []byte // request staging, then reply header; guarded by mu
	// rtt times the round trips of the opcodes Instrument installed a
	// histogram for (nil entries are untimed). Guarded by mu.
	rtt [len(opTable)]*telemetry.Histogram

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
	return NewStreamClient(conn), nil
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
	c := &StreamClient{conn: rwc} //lint:ignore hotalloc one allocation per established connection; hot paths reach this only through the cold redial recovery branch
	c.d = c
	return c
}

// Close implements Client.
func (c *StreamClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// do implements doer: one synchronous round trip on the connection.
func (c *StreamClient) do(cl call) (reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.doLocked(cl)
}

// doLocked exchanges one request frame for its reply — the only place a
// client frame is written or read. The frame is [4B length][1B opcode]
// [24B trace extension, when negotiated and a context is set] then the
// payload op's opTable row describes. Header and head are staged in c.wire;
// a bulk body of at least sgMinPayload on a connection with real writev
// leaves from the caller's buffer in the same vectored write, anything else
// is appended to the staging buffer and sent with one Write (sg.go). The
// reply's 5-byte header is read on its own: an OK rbulk payload of the
// expected size lands straight in cl.into, everything else in c.in — so an
// error reply or a size surprise still leaves the framing intact.
//
// Any transport failure — write error, read error, or a fired deadline —
// poisons the client: the framing state of the connection is unknown, so
// reuse could pair a stale response with a fresh request. Caller holds c.mu.
//
//shm:hotpath
func (c *StreamClient) doLocked(cl call) (reply, error) {
	if c.broken != nil {
		return reply{}, fmt.Errorf("smb: connection poisoned: %w", c.broken)
	}
	spec, err := specOf(cl.op)
	if err != nil {
		return reply{}, err
	}
	h := c.rtt[cl.op]
	var t0 time.Time
	if h != nil {
		t0 = time.Now()
	}

	str := cl.str
	if len(str) > 0xffff {
		str = str[:0xffff]
	}
	traced := c.traceOK && c.tc.TraceID != 0
	hn := 5 + 8*spec.words
	if traced {
		hn += traceHeaderLen
	}
	if spec.str {
		hn += 2 + len(str)
	}
	if hn-4+len(cl.body) > maxFrame {
		return reply{}, ErrFrameTooLarge
	}
	vectored := len(cl.body) >= sgMinPayload && connWritev(c.conn)
	stage := hn
	if !vectored {
		stage += len(cl.body)
	}
	if cap(c.wire) < stage {
		//lint:ignore hotalloc grow-only per-client staging, amortized to zero
		c.wire = make([]byte, stage)
	}
	buf := c.wire[:stage]
	b := sgStampHdr(buf[:hn], byte(cl.op), len(cl.body), traced, c.tc)
	if spec.str {
		binary.LittleEndian.PutUint16(buf[b:], uint16(len(str)))
		b += 2 + copy(buf[b+2:], str)
	}
	for i := 0; i < spec.words; i++ {
		binary.LittleEndian.PutUint64(buf[b:], cl.w[i])
		b += 8
	}

	dc, deadlines := c.conn.(deadlineConn)
	deadlines = deadlines && c.opTimeout > 0
	if deadlines {
		dc.SetWriteDeadline(time.Now().Add(c.opTimeout))
	}
	if vectored {
		c.vw.reset()
		c.vw.add(buf)
		c.vw.add(cl.body)
		err = c.vw.writeTo(c.conn)
	} else {
		copy(buf[b:], cl.body)
		_, err = c.conn.Write(buf)
	}
	if err != nil {
		return reply{}, c.poisonLocked(fmt.Errorf("smb request: %w: %w", ErrTransport, err))
	}
	if deadlines {
		dc.SetWriteDeadline(time.Time{})
		dc.SetReadDeadline(time.Now().Add(c.opTimeout))
	}

	// The reply header lands in the wire scratch (free again once the
	// request is out): a local array would escape through the io.Reader
	// interface and cost one allocation per op.
	hdr := c.wire[:5]
	if _, err := io.ReadFull(c.conn, hdr); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return reply{}, c.poisonLocked(fmt.Errorf("smb server closed connection: %w: %w", ErrTransport, err))
		}
		return reply{}, c.poisonLocked(fmt.Errorf("smb response: %w: %w", ErrTransport, err))
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n == 0 || n > maxFrame {
		return reply{}, c.poisonLocked(fmt.Errorf("smb response frame length %d: %w", n, ErrTransport))
	}
	status, payLen := hdr[4], int(n)-1
	landed := status == statusOK && spec.rbulk && payLen == len(cl.into)
	payload := cl.into
	if !landed {
		if cap(c.in) < payLen {
			c.in = make([]byte, payLen)
		}
		payload = c.in[:payLen]
	}
	if _, err := io.ReadFull(c.conn, payload); err != nil {
		return reply{}, c.poisonLocked(fmt.Errorf("smb response: %w: %w", ErrTransport, err))
	}
	if deadlines {
		dc.SetReadDeadline(time.Time{})
	}

	fr := frameReader{buf: payload}
	if status == statusErr {
		return reply{}, remoteError(fr.str())
	}
	if spec.rbulk && !landed {
		return reply{}, fmt.Errorf("smb %s returned %d bytes, want %d", spec.name, payLen, len(cl.into))
	}
	var r reply
	for i := 0; i < spec.rwords; i++ {
		r.w[i] = fr.u64()
	}
	if spec.rstr {
		r.str = fr.str()
	}
	if fr.err != nil {
		return reply{}, fr.err
	}
	if h != nil {
		h.ObserveSeconds(time.Since(t0).Nanoseconds())
	}
	return r, nil
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
