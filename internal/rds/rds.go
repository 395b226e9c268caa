// Package rds implements a reliable, ordered transport over unreliable
// datagrams — the stand-in for the modified Reliable Datagram Sockets
// kernel module the paper builds SMB's Infiniband Communication Module
// from ("developed through the modification of open source Reliable
// Datagram Sockets (RDS) included in linux kernel main line", Sec. III-B).
//
// The protocol is a compact go-back-N ARQ: fixed-size-bounded DATA packets
// carry a 64-bit sequence number; the receiver delivers in order, stashes
// out-of-order packets, and returns cumulative ACKs; the sender keeps a
// bounded window and retransmits everything unacknowledged on timeout.
// Connections are established with a SYN/SYNACK handshake and closed with
// best-effort FIN. Endpoints multiplex any number of peer connections over
// one datagram socket, like RDS sockets over one HCA.
//
// Like the kernel module's reliable connection layer, a connection bounds
// a stalled transfer and declares a dead peer dead: reads and writes take
// deadlines (os.ErrDeadlineExceeded, as on a net.Conn), and a peer that
// acknowledges nothing for deadPeerAfter while data is outstanding is torn
// down, so no waiter blocks on a vanished process forever.
//
// The wire is abstracted behind PacketIO, so tests drive the state machine
// through a lossy in-memory network, and production uses UDP (udp.go).
package rds

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Exported errors.
var (
	ErrClosed  = errors.New("rds: connection closed")
	ErrTimeout = errors.New("rds: handshake timeout")
)

// Protocol constants.
const (
	pktSYN byte = iota + 1
	pktSYNACK
	pktDATA
	pktACK
	pktFIN

	headerSize = 1 + 8 + 2
	// MaxPayload bounds one DATA packet's payload (a safe size below
	// typical MTU-with-fragmentation limits for UDP on loopback/LAN).
	MaxPayload = 16 * 1024
)

// Tunables (fixed; the paper's kernel module likewise hard-codes its ARQ).
const (
	windowPackets  = 64
	retransmitRTO  = 20 * time.Millisecond
	handshakeRTO   = 50 * time.Millisecond
	handshakeTries = 40
)

// deadPeerAfter is the dead-peer verdict's budget: a connection with data
// outstanding that receives no advancing ACK for this long — that many
// retransmitRTO rounds — is torn down, waking its blocked writers with
// ErrClosed and its readers with EOF. The receiver acknowledges whatever
// arrives whether or not its application reads, so only a vanished or
// partitioned peer is silent that long. A variable only so tests can
// shorten it; a connection fixes its round count when it is made.
var deadPeerAfter = 10 * time.Second

// PacketIO is one datagram socket: unreliable, unordered delivery of
// packets to string-addressed peers.
type PacketIO interface {
	// WriteTo sends one datagram to addr (best effort).
	WriteTo(b []byte, addr string) error
	// ReadFrom blocks for the next datagram, returning its sender.
	ReadFrom(b []byte) (n int, addr string, err error)
	// LocalAddr names this socket.
	LocalAddr() string
	// Close unblocks ReadFrom with an error.
	Close() error
}

func encodePacket(typ byte, seq uint64, payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	buf[0] = typ
	binary.LittleEndian.PutUint64(buf[1:], seq)
	binary.LittleEndian.PutUint16(buf[9:], uint16(len(payload)))
	copy(buf[headerSize:], payload)
	return buf
}

func decodePacket(b []byte) (typ byte, seq uint64, payload []byte, err error) {
	if len(b) < headerSize {
		return 0, 0, nil, fmt.Errorf("rds: short packet (%d bytes)", len(b))
	}
	typ = b[0]
	seq = binary.LittleEndian.Uint64(b[1:])
	n := int(binary.LittleEndian.Uint16(b[9:]))
	if len(b) < headerSize+n {
		return 0, 0, nil, fmt.Errorf("rds: truncated payload (%d of %d)", len(b)-headerSize, n)
	}
	return typ, seq, b[headerSize : headerSize+n], nil
}

// Endpoint multiplexes reliable connections over one datagram socket.
type Endpoint struct {
	io PacketIO

	mu      sync.Mutex
	conns   map[string]*Conn // guarded by mu
	accept  chan *Conn
	closed  bool // guarded by mu
	done    chan struct{}
	readErr error // guarded by mu
}

// NewEndpoint wraps a datagram socket and starts its demultiplexer.
func NewEndpoint(pio PacketIO) *Endpoint {
	e := &Endpoint{
		io:     pio,
		conns:  make(map[string]*Conn),
		accept: make(chan *Conn, 16),
		done:   make(chan struct{}),
	}
	go e.readLoop()
	return e
}

// Addr returns the underlying socket address.
func (e *Endpoint) Addr() string { return e.io.LocalAddr() }

// readLoop demultiplexes incoming packets to connections.
func (e *Endpoint) readLoop() {
	defer close(e.done)
	buf := make([]byte, headerSize+MaxPayload)
	for {
		n, from, err := e.io.ReadFrom(buf)
		if err != nil {
			e.mu.Lock()
			e.readErr = err
			conns := make([]*Conn, 0, len(e.conns))
			for _, c := range e.conns {
				conns = append(conns, c)
			}
			e.mu.Unlock()
			for _, c := range conns {
				c.teardown()
			}
			return
		}
		typ, seq, payload, err := decodePacket(buf[:n])
		if err != nil {
			continue // corrupt datagram: drop, ARQ recovers
		}
		e.dispatch(from, typ, seq, payload)
	}
}

func (e *Endpoint) dispatch(from string, typ byte, seq uint64, payload []byte) {
	e.mu.Lock()
	conn, known := e.conns[from]
	if !known && typ == pktSYN && !e.closed {
		conn = newConn(e, from)
		e.conns[from] = conn
		e.mu.Unlock()
		go conn.retransmitLoop()
		// Acknowledge the handshake and surface the connection.
		e.send(from, encodePacket(pktSYNACK, 0, nil))
		select {
		case e.accept <- conn:
		default:
			// Accept queue full: drop the connection.
			conn.teardown()
			e.removeConn(conn)
		}
		return
	}
	e.mu.Unlock()
	if conn == nil {
		// DATA/ACK from an unknown peer (stale or mis-routed): a FIN
		// tells it to give up.
		if typ == pktDATA {
			e.send(from, encodePacket(pktFIN, 0, nil))
		}
		return
	}
	conn.handlePacket(typ, seq, payload)
}

func (e *Endpoint) send(addr string, pkt []byte) {
	// Best effort: the ARQ handles losses.
	_ = e.io.WriteTo(pkt, addr)
}

// removeConn drops c from the connection table, unless a newer connection
// to the same peer has already taken its slot.
func (e *Endpoint) removeConn(c *Conn) {
	e.mu.Lock()
	if e.conns[c.peer] == c {
		delete(e.conns, c.peer)
	}
	e.mu.Unlock()
}

// Dial opens a reliable connection to a peer endpoint, retrying the SYN
// until acknowledged.
func (e *Endpoint) Dial(addr string) (*Conn, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if _, exists := e.conns[addr]; exists {
		e.mu.Unlock()
		return nil, fmt.Errorf("rds: connection to %s already exists", addr)
	}
	conn := newConn(e, addr)
	e.conns[addr] = conn
	e.mu.Unlock()
	go conn.retransmitLoop()

	syn := encodePacket(pktSYN, 0, nil)
	for try := 0; try < handshakeTries; try++ {
		e.send(addr, syn)
		select {
		case <-conn.established:
			return conn, nil
		case <-conn.dead:
			e.removeConn(conn)
			return nil, ErrClosed
		case <-time.After(handshakeRTO):
		}
	}
	conn.teardown()
	e.removeConn(conn)
	return nil, fmt.Errorf("dial %s: %w", addr, ErrTimeout)
}

// Accept blocks for the next inbound connection.
func (e *Endpoint) Accept() (*Conn, error) {
	select {
	case c := <-e.accept:
		return c, nil
	case <-e.done:
		return nil, ErrClosed
	}
}

// Close tears down every connection and the socket.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := make([]*Conn, 0, len(e.conns))
	for _, c := range e.conns {
		conns = append(conns, c)
	}
	e.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	err := e.io.Close()
	<-e.done
	return err
}

// Conn is one reliable, ordered byte stream to a peer. It implements
// io.ReadWriteCloser with read and write deadlines, so the SMB wire
// protocol runs over it unchanged.
type Conn struct {
	ep   *Endpoint
	peer string
	// deadRounds is deadPeerAfter in retransmitRTO rounds (the verdict).
	deadRounds int

	established chan struct{}
	estOnce     sync.Once
	dead        chan struct{}
	deadOnce    sync.Once

	// Sender state (go-back-N).
	sndMu   sync.Mutex
	sndCond *sync.Cond
	sndNext uint64            // next sequence number to assign; guarded by sndMu
	sndUna  uint64            // oldest unacknowledged; guarded by sndMu
	pending map[uint64][]byte // encoded packets awaiting ack; guarded by sndMu
	lastAck time.Time         // guarded by sndMu
	silent  int               // rounds with data outstanding and no ACK advance; guarded by sndMu
	wdl     deadline          // write deadline; guarded by sndMu

	// Receiver state.
	rcvMu   sync.Mutex
	rcvCond *sync.Cond
	rcvNext uint64            // guarded by rcvMu
	stash   map[uint64][]byte // out-of-order payloads; guarded by rcvMu
	rcvBuf  []byte            // in-order bytes ready for Read; guarded by rcvMu
	rcvEOF  bool              // guarded by rcvMu
	rdl     deadline          // read deadline; guarded by rcvMu
}

var _ io.ReadWriteCloser = (*Conn)(nil)

// newConn makes a connection to peer on e. Its maker registers it and then
// starts its retransmitLoop outside e.mu, which the loop's verdict takes.
func newConn(e *Endpoint, peer string) *Conn {
	c := &Conn{
		ep:          e,
		peer:        peer,
		deadRounds:  max(1, int(deadPeerAfter/retransmitRTO)),
		established: make(chan struct{}),
		dead:        make(chan struct{}),
		pending:     make(map[uint64][]byte),
		stash:       make(map[uint64][]byte),
		lastAck:     time.Now(),
	}
	c.sndCond = sync.NewCond(&c.sndMu)
	c.rcvCond = sync.NewCond(&c.rcvMu)
	return c
}

func (c *Conn) markEstablished() { c.estOnce.Do(func() { close(c.established) }) }

// teardown marks the connection dead, wakes all waiters and stops the
// deadline timers.
func (c *Conn) teardown() {
	c.deadOnce.Do(func() {
		close(c.dead)
		c.sndMu.Lock()
		c.wdl.set(time.Time{}, c.sndCond)
		c.sndCond.Broadcast()
		c.sndMu.Unlock()
		c.rcvMu.Lock()
		c.rdl.set(time.Time{}, c.rcvCond)
		c.rcvEOF = true
		c.rcvCond.Broadcast()
		c.rcvMu.Unlock()
	})
}

func (c *Conn) isDead() bool {
	select {
	case <-c.dead:
		return true
	default:
		return false
	}
}

// handlePacket processes one inbound packet (called by the demux loop).
func (c *Conn) handlePacket(typ byte, seq uint64, payload []byte) {
	switch typ {
	case pktSYN:
		// Duplicate SYN from the peer: re-acknowledge.
		c.ep.send(c.peer, encodePacket(pktSYNACK, 0, nil))
	case pktSYNACK:
		c.markEstablished()
	case pktDATA:
		c.markEstablished() // data implies the peer saw our handshake
		c.onData(seq, payload)
	case pktACK:
		c.onAck(seq)
	case pktFIN:
		c.teardown()
		c.ep.removeConn(c)
	}
}

// onData delivers in-order payloads and cumulatively acknowledges.
func (c *Conn) onData(seq uint64, payload []byte) {
	c.rcvMu.Lock()
	switch {
	case seq == c.rcvNext:
		c.rcvBuf = append(c.rcvBuf, payload...)
		c.rcvNext++
		// Drain any stashed successors.
		for {
			next, ok := c.stash[c.rcvNext]
			if !ok {
				break
			}
			delete(c.stash, c.rcvNext)
			c.rcvBuf = append(c.rcvBuf, next...)
			c.rcvNext++
		}
		c.rcvCond.Broadcast()
	case seq > c.rcvNext:
		if len(c.stash) < 4*windowPackets { // bound stash memory
			cp := make([]byte, len(payload))
			copy(cp, payload)
			c.stash[seq] = cp
		}
	default:
		// Duplicate of already-delivered data: just re-ack.
	}
	ackTo := c.rcvNext
	c.rcvMu.Unlock()
	c.ep.send(c.peer, encodePacket(pktACK, ackTo, nil))
}

// onAck advances the send window.
func (c *Conn) onAck(cum uint64) {
	c.sndMu.Lock()
	if cum > c.sndUna {
		for seq := c.sndUna; seq < cum; seq++ {
			delete(c.pending, seq)
		}
		c.sndUna = cum
		c.lastAck = time.Now()
		c.silent = 0
		c.sndCond.Broadcast()
	}
	c.sndMu.Unlock()
}

// retransmitLoop resends all unacknowledged packets when the oldest has
// been outstanding past the RTO (go-back-N), and delivers the dead-peer
// verdict: deadRounds rounds in a row with data outstanding and no ACK
// advancing tear the connection down. It exits with the connection.
func (c *Conn) retransmitLoop() {
	ticker := time.NewTicker(retransmitRTO)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			c.sndMu.Lock()
			if len(c.pending) == 0 {
				c.silent = 0
			} else {
				c.silent++
			}
			if c.silent >= c.deadRounds {
				c.sndMu.Unlock()
				c.teardown()
				c.ep.removeConn(c)
				return
			}
			var resend [][]byte
			if len(c.pending) > 0 && time.Since(c.lastAck) >= retransmitRTO {
				for seq := c.sndUna; seq < c.sndNext; seq++ {
					if pkt, ok := c.pending[seq]; ok {
						resend = append(resend, pkt)
					}
				}
				c.lastAck = time.Now() // pace retransmission bursts
			}
			c.sndMu.Unlock()
			for _, pkt := range resend {
				c.ep.send(c.peer, pkt)
			}
		case <-c.dead:
			return
		}
	}
}

// Write implements io.Writer: packetize and send under the window. A
// write deadline that passes before every chunk has entered the window
// fails it with os.ErrDeadlineExceeded; the chunks already sent stay sent.
func (c *Conn) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		chunk := p
		if len(chunk) > MaxPayload {
			chunk = chunk[:MaxPayload]
		}
		c.sndMu.Lock()
		for c.sndNext-c.sndUna >= windowPackets && !c.isDead() && !c.wdl.passed() {
			c.sndCond.Wait()
		}
		if c.isDead() {
			c.sndMu.Unlock()
			return total, ErrClosed
		}
		if c.wdl.passed() {
			c.sndMu.Unlock()
			return total, fmt.Errorf("rds: write to %s: %w", c.peer, os.ErrDeadlineExceeded)
		}
		seq := c.sndNext
		c.sndNext++
		pkt := encodePacket(pktDATA, seq, chunk)
		c.pending[seq] = pkt
		c.sndMu.Unlock()

		c.ep.send(c.peer, pkt)
		total += len(chunk)
		p = p[len(chunk):]
	}
	return total, nil
}

// Read implements io.Reader: in-order delivered bytes. Once the read
// deadline has passed it fails with os.ErrDeadlineExceeded, delivered
// bytes or not, as a net.Conn does.
func (c *Conn) Read(p []byte) (int, error) {
	c.rcvMu.Lock()
	defer c.rcvMu.Unlock()
	for {
		if c.rdl.passed() {
			return 0, fmt.Errorf("rds: read from %s: %w", c.peer, os.ErrDeadlineExceeded)
		}
		if len(c.rcvBuf) > 0 {
			break
		}
		if c.rcvEOF {
			return 0, io.EOF
		}
		c.rcvCond.Wait()
	}
	n := copy(p, c.rcvBuf)
	c.rcvBuf = c.rcvBuf[n:]
	return n, nil
}

// Close sends a best-effort FIN and tears the connection down.
func (c *Conn) Close() error {
	if !c.isDead() {
		c.ep.send(c.peer, encodePacket(pktFIN, 0, nil))
	}
	c.teardown()
	c.ep.removeConn(c)
	return nil
}

// SetReadDeadline bounds every Read, pending or future, to t; the zero time
// disarms it. Re-arming allocates nothing.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.rcvMu.Lock()
	c.rdl.set(t, c.rcvCond)
	c.rcvMu.Unlock()
	return nil
}

// SetWriteDeadline bounds every Write, pending or future, to t; the zero
// time disarms it. Re-arming allocates nothing.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.sndMu.Lock()
	c.wdl.set(t, c.sndCond)
	c.sndMu.Unlock()
	return nil
}

// deadline is one direction's deadline, guarded by that direction's mutex
// (the lock of its sync.Cond). Its timer only wakes the direction's
// waiters; each waiter decides by passed, so a wake-up left over from an
// earlier arming is harmless.
type deadline struct {
	at    time.Time // zero = none
	timer *time.Timer
}

// set arms d for t, or disarms it for the zero time. The timer is made on
// the first arming and re-armed with Reset after that.
func (d *deadline) set(t time.Time, cond *sync.Cond) {
	d.at = t
	switch {
	case t.IsZero():
		if d.timer != nil {
			d.timer.Stop()
		}
	case d.timer == nil:
		d.timer = time.AfterFunc(time.Until(t), func() {
			cond.L.Lock()
			cond.Broadcast()
			cond.L.Unlock()
		})
	default:
		d.timer.Reset(time.Until(t))
	}
}

// passed reports whether the deadline is armed and has passed.
func (d *deadline) passed() bool { return !d.at.IsZero() && !time.Now().Before(d.at) }
