package smb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"shmcaffe/internal/rds"
	"shmcaffe/internal/tensor"
)

// Tests of the server's streamed data path: Write bodies received straight
// into the segment's stripes, bulk replies sent straight from them or from
// a snapshot's cut, and the deadline that bounds how long a peer can hold
// the locks either one takes, on every transport.

// memConn is an in-memory connection with inert deadlines: the server reads
// requests from Reader and writes replies to Writer.
type memConn struct {
	io.Reader
	io.Writer
}

func (memConn) Close() error                     { return nil }
func (memConn) SetReadDeadline(time.Time) error  { return nil }
func (memConn) SetWriteDeadline(time.Time) error { return nil }

// writeFrame and readFrame move whole frames for tests that play a raw
// peer; the server reads requests with connState.readRequest and the
// client reads replies in StreamClient.doLocked.
func writeFrame(w io.Writer, op byte, payload []byte) error {
	var scratch []byte
	return writeFrameInto(w, op, payload, &scratch)
}

func readFrame(r io.Reader) (op byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("frame length %d: %w", n, ErrFrameTooLarge)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

// shortenStreamTimeout sets the server's streamed-transfer deadline for
// one test. Call it before starting the server, so the restore runs after
// the server's cleanup has joined every handler.
func shortenStreamTimeout(t *testing.T, d time.Duration) {
	t.Helper()
	old := streamTimeout
	streamTimeout = d
	t.Cleanup(func() { streamTimeout = old })
}

// stallTransports are the transports the stall tests run over: a raw TCP
// peer stops moving bytes, an rds peer's process vanishes.
var stallTransports = []string{"tcp", "rds"}

// stallFixture is a server with a weight segment wg and an increment
// segment dw of size bytes each, attached by a wire client, and (after
// dialPeer) a raw peer to misbehave on.
type stallFixture struct {
	srv     *Server
	c       *StreamClient
	wg, dw  Handle
	raw     Conn
	pio     *vanishIO // the rds peer's socket; nil over tcp
	stalled time.Time // when the peer stopped
}

func newStallFixture(t *testing.T, size int) *stallFixture {
	t.Helper()
	fx := &stallFixture{srv: startServer(t)}
	fx.c = dialT(t, fx.srv)
	for i, name := range []string{"wg", "dw"} {
		key, err := fx.c.Create(name, size)
		if err != nil {
			t.Fatal(err)
		}
		h, err := fx.c.Attach(key)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			fx.wg = h
		} else {
			fx.dw = h
		}
	}
	return fx
}

// dialPeer connects the fixture's raw peer over transport: a TCP
// connection, or an rds connection from an endpoint over a vanishIO socket
// to the server's rds endpoint.
func (fx *stallFixture) dialPeer(t *testing.T, transport string) {
	t.Helper()
	if transport == "tcp" {
		raw, err := net.DialTimeout("tcp", fx.srv.Addr(), dialTimeout)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { raw.Close() })
		fx.raw = raw
		return
	}
	addr := serveRDS(t, fx.srv, func(c *rds.Conn) Conn { return c })
	udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	fx.pio = &vanishIO{conn: udp}
	ep := rds.NewEndpoint(fx.pio)
	t.Cleanup(func() { ep.Close() })
	peer, err := ep.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	fx.raw = peer
}

// stall stops the peer mid-transfer: a TCP peer already moves no more
// bytes; an rds peer's process vanishes, and its FIN never arrives.
func (fx *stallFixture) stall() {
	fx.stalled = time.Now()
	if fx.pio != nil {
		fx.pio.gone.Store(true)
	}
}

// contend runs an Accumulate into wg and a Snapshot of it from two more
// clients while a peer stalls, and requires both to complete once the
// stalled transfer's deadline releases its locks — not before, since a
// streamed transfer holds them. Their op timeout fails an op still blocked
// long after that.
func (fx *stallFixture) contend(t *testing.T) {
	t.Helper()
	errs := make(chan error, 2)
	acc, snap := dialT(t, fx.srv), dialT(t, fx.srv)
	acc.SetTimeouts(10 * time.Second)
	snap.SetTimeouts(10 * time.Second)
	go func() { errs <- acc.Accumulate(fx.wg, fx.dw) }()
	go func() {
		info, err := snap.Snapshot(fx.wg)
		if err == nil {
			err = snap.SnapRelease(info.ID)
		}
		errs <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("contending op failed behind the stalled peer: %v", err)
		}
	}
	if el := time.Since(fx.stalled); el < streamTimeout/2 || el > streamTimeout+5*time.Second {
		t.Fatalf("contending ops finished %v after the stall, want about the %v stream deadline", el, streamTimeout)
	}
}

// dropped requires the raw peer's connection closed by the server, with
// exactly one connection error counted: the stalled peer's.
func (fx *stallFixture) dropped(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for fx.srv.ConnErrors() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fx.pio == nil {
		// The TCP peer is dropped: its connection reads EOF.
		fx.raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.Copy(io.Discard, fx.raw); err != nil {
			t.Fatalf("stalled peer's connection not closed by the server: %v", err)
		}
	}
	if n := fx.srv.ConnErrors(); n != 1 {
		t.Fatalf("server counted %d connection errors, want 1 (the stalled peer)", n)
	}
}

// TestStalledBodyReleasesLocks: a peer that sends a Write head and half of
// a 1 MiB body, then stops — or, over rds, vanishes — holds a stripe's
// write lock and the op gate only until the stream deadline fires. The
// dropped Write has RDMA WRITE semantics: the version moves, no Write is
// counted.
func TestStalledBodyReleasesLocks(t *testing.T) {
	shortenStreamTimeout(t, 300*time.Millisecond)
	const size = 1 << 20
	for _, transport := range stallTransports {
		t.Run(transport, func(t *testing.T) {
			fx := newStallFixture(t, size)
			fx.dialPeer(t, transport)
			v0, err := fx.srv.Store().Version(fx.wg)
			if err != nil {
				t.Fatal(err)
			}
			writes := fx.srv.Store().Stats().Writes

			head := appendFrame(nil, byte(opWrite), u64s(uint64(fx.wg), 0))
			binary.LittleEndian.PutUint32(head, uint32(1+16+size)) // the body the frame announces
			if _, err := fx.raw.Write(append(head, make([]byte, size/2)...)); err != nil {
				t.Fatal(err)
			}
			time.Sleep(50 * time.Millisecond) // let the server start receiving the body
			fx.stall()
			fx.contend(t)
			fx.dropped(t)

			if v, _ := fx.srv.Store().Version(fx.wg); v < v0+1 {
				t.Fatalf("version %d after a cut Write, want at least %d", v, v0+1)
			}
			if got := fx.srv.Store().Stats().Writes; got != writes {
				t.Fatalf("a cut Write was counted: %d writes, want %d", got, writes)
			}
		})
	}
}

// TestStalledReplyReleasesLocks: a peer that asks for a multi-MB Read and
// never reads the reply — or, over rds, vanishes while it goes out, past
// the 1 MiB send window — holds a group of stripes' read locks only until
// the stream deadline fires.
func TestStalledReplyReleasesLocks(t *testing.T) {
	shortenStreamTimeout(t, 300*time.Millisecond)
	const size = 8 << 20 // past the send buffer and the peer's small window
	for _, transport := range stallTransports {
		t.Run(transport, func(t *testing.T) {
			fx := newStallFixture(t, size)
			fx.dialPeer(t, transport)
			if tcp, ok := fx.raw.(*net.TCPConn); ok {
				tcp.SetReadBuffer(16 << 10)
			}
			if err := writeFrame(fx.raw, byte(opRead), u64s(uint64(fx.wg), 0, size)); err != nil {
				t.Fatal(err)
			}
			time.Sleep(50 * time.Millisecond) // let the server fill the socket
			fx.stall()
			fx.contend(t)
			fx.dropped(t)
		})
	}
}

// TestSlowPeerNotCutOff: the stream deadline bounds progress, not the
// transfer. A peer that sends a 1 MiB Write body a stripe at a time, or
// drains a 16 MiB Read reply (well past the kernel's socket buffers) a
// quarter MiB at a time, keeps the server busy for over twice
// streamTimeout but never stalls one span that long: it is served, and
// no connection is dropped.
func TestSlowPeerNotCutOff(t *testing.T) {
	shortenStreamTimeout(t, 400*time.Millisecond)
	t.Run("write-body", func(t *testing.T) {
		const size = 1 << 20
		fx := newStallFixture(t, size)
		fx.dialPeer(t, "tcp")
		head := appendFrame(nil, byte(opWrite), u64s(uint64(fx.wg), 0))
		binary.LittleEndian.PutUint32(head, uint32(1+16+size))
		if _, err := fx.raw.Write(head); err != nil {
			t.Fatal(err)
		}
		body := bytes.Repeat([]byte{7}, chunkBytes)
		for lo := 0; lo < size; lo += chunkBytes {
			time.Sleep(60 * time.Millisecond) // 16 stripes ≈ 2.4 × the deadline
			if _, err := fx.raw.Write(body); err != nil {
				t.Fatalf("body cut off at byte %d: %v", lo, err)
			}
		}
		fx.raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		if status, payload, err := readFrame(fx.raw); err != nil || status != statusOK {
			t.Fatalf("slow Write answered %d %q, %v; want OK", status, payload, err)
		}
		if n := fx.srv.ConnErrors(); n != 0 {
			t.Fatalf("server dropped %d connections", n)
		}
	})
	t.Run("read-reply", func(t *testing.T) {
		const size, piece = 16 << 20, 256 << 10
		fx := newStallFixture(t, size)
		fx.dialPeer(t, "tcp")
		// Above loopback's MSS, so the window reopens as the peer reads.
		fx.raw.(*net.TCPConn).SetReadBuffer(piece)
		if err := writeFrame(fx.raw, byte(opRead), u64s(uint64(fx.wg), 0, size)); err != nil {
			t.Fatal(err)
		}
		fx.raw.SetReadDeadline(time.Now().Add(20 * time.Second))
		reply := make([]byte, 5+size)
		for lo := 0; lo < len(reply); {
			time.Sleep(30 * time.Millisecond) // ≈ 120 ms per 1 MiB group
			n, err := io.ReadFull(fx.raw, reply[lo:min(lo+piece, len(reply))])
			if err != nil {
				t.Fatalf("reply cut off at byte %d: %v", lo+n, err)
			}
			lo += n
		}
		if reply[4] != statusOK {
			t.Fatalf("slow Read answered status %d", reply[4])
		}
		if n := fx.srv.ConnErrors(); n != 0 {
			t.Fatalf("server dropped %d connections", n)
		}
	})
}

// vanishIO is an RDS datagram socket whose process can vanish: after gone
// is set it neither sends nor delivers a datagram, as a killed peer whose
// FIN never arrives.
type vanishIO struct {
	conn *net.UDPConn
	gone atomic.Bool
}

func (v *vanishIO) WriteTo(b []byte, addr string) error {
	if v.gone.Load() {
		return nil
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	_, err = v.conn.WriteToUDP(b, ua)
	return err
}

func (v *vanishIO) ReadFrom(b []byte) (int, string, error) {
	for {
		n, from, err := v.conn.ReadFromUDP(b)
		if err != nil {
			return 0, "", err
		}
		if !v.gone.Load() {
			return n, from.String(), nil
		}
	}
}

func (v *vanishIO) LocalAddr() string { return v.conn.LocalAddr().String() }
func (v *vanishIO) Close() error      { return v.conn.Close() }

// TestStreamedWriteRefusedStaysInFrame: a streamed body aimed at an
// unknown handle or past the segment end is read off and answered with
// the error; the next frame on the connection is served.
func TestStreamedWriteRefusedStaysInFrame(t *testing.T) {
	srv := startServer(t)
	c := dialT(t, srv)
	key, err := c.Create("wg", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<20)
	if err := c.Write(h+100, 0, body); !errors.Is(err, ErrUnknownHandle) {
		t.Fatalf("write to an unknown handle: %v, want ErrUnknownHandle", err)
	}
	if err := c.Write(h, 8, body); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write past the end: %v, want ErrOutOfRange", err)
	}
	if err := c.Write(h, 0, body); err != nil {
		t.Fatalf("connection unusable after refused bodies: %v", err)
	}
	if n := srv.ConnErrors(); n != 0 {
		t.Fatalf("refused bodies cost %d connections", n)
	}
}

// TestServerScratchBounded pins the no-staging contract on every transport:
// after multi-MB Write, Read and SnapRead frames on one connection — and a
// multi-MB body the server refused and discarded — the connection's
// scratch is no larger than one stripe plus the largest request head.
func TestServerScratchBounded(t *testing.T) {
	for _, transport := range stallTransports {
		t.Run(transport, func(t *testing.T) { testServerScratchBounded(t, transport) })
	}
}

func testServerScratchBounded(t *testing.T, transport string) {
	const size = 6 << 20
	srv := &Server{store: NewStore(), done: make(chan struct{})}
	server, client := connPair(t, transport)
	cs := &connState{}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.handle(server, cs)
	}()
	c := NewStreamClient(client)
	key, err := c.Create("wg", size)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.Repeat([]byte{1, 2, 3, 5, 8, 13, 21}, size/7+1)[:size]
	if err := c.Write(h, 0, src); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(h+1, 0, src); !errors.Is(err, ErrUnknownHandle) {
		t.Fatalf("write to an unknown handle: %v", err)
	}
	dst := make([]byte, size)
	if err := c.Read(h, 0, dst); err != nil || !bytes.Equal(dst, src) {
		t.Fatalf("read back: %v (equal %v)", err, bytes.Equal(dst, src))
	}
	info, err := c.Snapshot(h)
	if err != nil {
		t.Fatal(err)
	}
	clear(dst)
	if err := c.SnapRead(info.ID, 0, dst); err != nil || !bytes.Equal(dst, src) {
		t.Fatalf("snapshot read back: %v (equal %v)", err, bytes.Equal(dst, src))
	}
	c.Close()
	<-served

	const bound = chunkBytes + 5 + traceHeaderLen + maxHead
	if got := cap(cs.in) + cap(cs.fw.buf) + cap(cs.wire); got > bound {
		t.Fatalf("connection scratch grew to %d bytes after %d-byte transfers, want at most %d", got, size, bound)
	}
}

// connPair returns the two ends of one fresh connection over transport
// ("tcp" or "rds").
func connPair(t *testing.T, transport string) (server, client Conn) {
	t.Helper()
	accepted := make(chan Conn, 1)
	if transport == "tcp" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			if conn, err := ln.Accept(); err == nil {
				accepted <- conn
			}
		}()
		if client, err = net.DialTimeout("tcp", ln.Addr().String(), dialTimeout); err != nil {
			t.Fatal(err)
		}
		return <-accepted, client
	}
	sep, err := rds.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sep.Close() })
	cep, err := rds.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cep.Close() })
	go func() {
		if conn, err := sep.Accept(); err == nil {
			accepted <- conn
		}
	}()
	if client, err = cep.Dial(sep.Addr()); err != nil {
		t.Fatal(err)
	}
	return <-accepted, client
}

// TestStreamedRaceStress runs streamed Write bodies, streamed Read and
// SnapRead replies, and Accumulates against one multi-stripe weight
// segment from several connections at once (tier 2 runs it under -race).
// Every increment lands — the weight ends at the exact sum — a streamed
// Read sees each stripe whole, and a streamed SnapRead sees one cut.
func TestStreamedRaceStress(t *testing.T) {
	const (
		workers = 3
		iters   = 12
		vals    = 3*chunkBytes/4 + 24 // three stripes and a tail
	)
	srv := startServer(t)
	setup := dialT(t, srv)
	gKey, err := setup.Create("stream/wg", 4*vals)
	if err != nil {
		t.Fatal(err)
	}
	ones := tensor.Float32Bytes(onesVec(vals))
	errs := make(chan error, 2*workers)
	for w := 0; w < workers; w++ {
		c, r := dialT(t, srv), dialT(t, srv)
		go func() {
			errs <- func() error {
				hg, err := c.Attach(gKey)
				if err != nil {
					return err
				}
				dKey, err := c.Create(fmt.Sprintf("stream/dw%d", w), 4*vals)
				if err != nil {
					return err
				}
				hd, err := c.Attach(dKey)
				if err != nil {
					return err
				}
				for i := 0; i < iters; i++ {
					if err := c.WriteAccumulate(hg, hd, ones); err != nil {
						return err
					}
				}
				return nil
			}()
		}()
		go func() {
			errs <- func() error {
				hg, err := r.Attach(gKey)
				if err != nil {
					return err
				}
				buf := make([]byte, 4*vals)
				for i := 0; i < iters; i++ {
					if err := r.Read(hg, 0, buf); err != nil {
						return err
					}
					for lo := 0; lo < len(buf); lo += chunkBytes {
						if s := buf[lo:min(lo+chunkBytes, len(buf))]; !uniform(s) {
							return fmt.Errorf("streamed read tore stripe at byte %d", lo)
						}
					}
					info, err := r.Snapshot(hg)
					if err != nil {
						return err
					}
					err = r.SnapRead(info.ID, 0, buf)
					if rerr := r.SnapRelease(info.ID); err == nil {
						err = rerr
					}
					if err != nil {
						return err
					}
					if !uniform(buf) {
						return errors.New("streamed snapshot read is not one cut")
					}
				}
				return nil
			}()
		}()
	}
	for i := 0; i < 2*workers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	hg, err := setup.Attach(gKey)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*vals)
	if err := setup.Read(hg, 0, buf); err != nil {
		t.Fatal(err)
	}
	got, err := tensor.Float32FromBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != workers*iters {
			t.Fatalf("wg[%d] = %v, want %d (lost increments)", i, v, workers*iters)
		}
	}
}

// uniform reports whether b is one float32 value repeated.
func uniform(b []byte) bool {
	for i := 4; i < len(b); i += 4 {
		if !bytes.Equal(b[i:i+4], b[:4]) {
			return false
		}
	}
	return true
}
