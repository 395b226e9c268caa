package rds

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"shmcaffe/internal/tensor"
)

// memNet is an in-memory datagram network with configurable loss,
// duplication and reordering — the adversarial substrate for the ARQ tests.
type memNet struct {
	mu      sync.Mutex
	sockets map[string]*memSocket
	rng     *tensor.RNG
	// lossEvery drops every n-th packet (0 disables); dupEvery duplicates.
	lossEvery int
	dupEvery  int
	counter   int
}

func newMemNet(seed uint64) *memNet {
	return &memNet{sockets: make(map[string]*memSocket), rng: tensor.NewRNG(seed)}
}

type memPacket struct {
	from string
	data []byte
}

type memSocket struct {
	net    *memNet
	addr   string
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []memPacket
	closed bool
}

var _ PacketIO = (*memSocket)(nil)

func (n *memNet) socket(addr string) *memSocket {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := &memSocket{net: n, addr: addr}
	s.cond = sync.NewCond(&s.mu)
	n.sockets[addr] = s
	return s
}

func (s *memSocket) WriteTo(b []byte, addr string) error {
	s.net.mu.Lock()
	dst := s.net.sockets[addr]
	s.net.counter++
	drop := s.net.lossEvery > 0 && s.net.counter%s.net.lossEvery == 0
	dup := s.net.dupEvery > 0 && s.net.counter%s.net.dupEvery == 0
	s.net.mu.Unlock()
	if dst == nil || drop {
		return nil // silently lost
	}
	cp := make([]byte, len(b))
	copy(cp, b)
	dst.mu.Lock()
	dst.queue = append(dst.queue, memPacket{from: s.addr, data: cp})
	if dup {
		dst.queue = append(dst.queue, memPacket{from: s.addr, data: cp})
	}
	dst.cond.Broadcast()
	dst.mu.Unlock()
	return nil
}

func (s *memSocket) ReadFrom(b []byte) (int, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		return 0, "", ErrClosed
	}
	p := s.queue[0]
	s.queue = s.queue[1:]
	n := copy(b, p.data)
	return n, p.from, nil
}

func (s *memSocket) LocalAddr() string { return s.addr }

func (s *memSocket) Close() error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	return nil
}

// pair builds two connected endpoints over a memNet.
func pair(t *testing.T, net *memNet) (client, server *Endpoint) {
	t.Helper()
	server = NewEndpoint(net.socket("server"))
	client = NewEndpoint(net.socket("client"))
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return client, server
}

func TestHandshakeAndEcho(t *testing.T) {
	client, server := pair(t, newMemNet(1))
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			conn, err := server.Accept()
			if err != nil {
				return err
			}
			buf := make([]byte, 5)
			if _, err := io.ReadFull(conn, buf); err != nil {
				return err
			}
			_, err = conn.Write(bytes.ToUpper(buf))
			return err
		}()
	}()
	conn, err := client.Dial("server")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "HELLO" {
		t.Fatalf("echo %q", buf)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestBulkTransferUnderLoss is the ARQ's load-bearing test: a multi-window
// transfer over a network dropping every 7th packet and duplicating every
// 11th must arrive intact and in order.
func TestBulkTransferUnderLoss(t *testing.T) {
	net := newMemNet(2)
	net.lossEvery = 7
	net.dupEvery = 11
	client, server := pair(t, net)

	const size = 800 * 1024 // ≈50 windows of 16 KiB packets
	payload := make([]byte, size)
	rng := tensor.NewRNG(3)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}

	received := make(chan []byte, 1)
	errCh := make(chan error, 1)
	go func() {
		conn, err := server.Accept()
		if err != nil {
			errCh <- err
			return
		}
		buf := make([]byte, size)
		if _, err := io.ReadFull(conn, buf); err != nil {
			errCh <- err
			return
		}
		received <- buf
	}()
	conn, err := client.Dial("server")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		t.Fatal(err)
	case got := <-received:
		if !bytes.Equal(got, payload) {
			t.Fatal("payload corrupted by lossy transfer")
		}
	}
}

func TestBidirectionalConcurrent(t *testing.T) {
	net := newMemNet(4)
	net.lossEvery = 9
	client, server := pair(t, net)

	const n = 64 * 1024
	serverDone := make(chan error, 1)
	go func() {
		serverDone <- func() error {
			conn, err := server.Accept()
			if err != nil {
				return err
			}
			var wg sync.WaitGroup
			var werr, rerr error
			wg.Add(2)
			go func() {
				defer wg.Done()
				out := bytes.Repeat([]byte{'s'}, n)
				_, werr = conn.Write(out)
			}()
			go func() {
				defer wg.Done()
				buf := make([]byte, n)
				_, rerr = io.ReadFull(conn, buf)
				if rerr == nil && buf[0] != 'c' {
					rerr = fmt.Errorf("wrong byte %c", buf[0])
				}
			}()
			wg.Wait()
			if werr != nil {
				return werr
			}
			return rerr
		}()
	}()

	conn, err := client.Dial("server")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var werr, rerr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, werr = conn.Write(bytes.Repeat([]byte{'c'}, n))
	}()
	go func() {
		defer wg.Done()
		buf := make([]byte, n)
		_, rerr = io.ReadFull(conn, buf)
		if rerr == nil && buf[n-1] != 's' {
			rerr = fmt.Errorf("wrong byte %c", buf[n-1])
		}
	}()
	wg.Wait()
	if werr != nil || rerr != nil {
		t.Fatal(werr, rerr)
	}
	if err := <-serverDone; err != nil {
		t.Fatal(err)
	}
}

func TestCloseDeliversEOF(t *testing.T) {
	client, server := pair(t, newMemNet(5))
	acceptCh := make(chan *Conn, 1)
	go func() {
		c, err := server.Accept()
		if err == nil {
			acceptCh <- c
		}
	}()
	conn, err := client.Dial("server")
	if err != nil {
		t.Fatal(err)
	}
	sconn := <-acceptCh
	conn.Close()
	buf := make([]byte, 1)
	if _, err := sconn.Read(buf); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF after peer close, got %v", err)
	}
	if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed on write after close, got %v", err)
	}
}

func TestDialTimeoutWhenPeerAbsent(t *testing.T) {
	net := newMemNet(6)
	client := NewEndpoint(net.socket("client"))
	defer client.Close()
	if _, err := client.Dial("nobody"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func TestPacketCodecRoundTrip(t *testing.T) {
	pkt := encodePacket(pktDATA, 42, []byte("abc"))
	typ, seq, payload, err := decodePacket(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if typ != pktDATA || seq != 42 || string(payload) != "abc" {
		t.Fatalf("decoded %d %d %q", typ, seq, payload)
	}
	if _, _, _, err := decodePacket([]byte{1, 2}); err == nil {
		t.Fatal("expected error for short packet")
	}
	truncated := encodePacket(pktDATA, 1, []byte("abcdef"))[:headerSize+2]
	if _, _, _, err := decodePacket(truncated); err == nil {
		t.Fatal("expected error for truncated payload")
	}
}

func TestUDPIntegration(t *testing.T) {
	server, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const size = 256 * 1024
	payload := make([]byte, size)
	rng := tensor.NewRNG(7)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	errCh := make(chan error, 1)
	got := make(chan []byte, 1)
	go func() {
		conn, err := server.Accept()
		if err != nil {
			errCh <- err
			return
		}
		buf := make([]byte, size)
		if _, err := io.ReadFull(conn, buf); err != nil {
			errCh <- err
			return
		}
		got <- buf
	}()
	conn, err := client.Dial(server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		t.Fatal(err)
	case buf := <-got:
		if !bytes.Equal(buf, payload) {
			t.Fatal("UDP transfer corrupted")
		}
	}
}

// connected dials a client connection to the server endpoint of a fresh
// pair over net and returns both ends.
func connected(t *testing.T, net *memNet) (client, server *Conn, cep, sep *Endpoint) {
	t.Helper()
	cep, sep = pair(t, net)
	accepted := make(chan *Conn, 1)
	go func() {
		if c, err := sep.Accept(); err == nil {
			accepted <- c
		}
	}()
	client, err := cep.Dial("server")
	if err != nil {
		t.Fatal(err)
	}
	return client, <-accepted, cep, sep
}

// vanish makes net drop every packet from now on: the peer is gone, and
// not even its FIN arrives.
func (n *memNet) vanish() {
	n.mu.Lock()
	n.lossEvery = 1
	n.mu.Unlock()
}

// TestReadDeadline: a Read with nothing delivered fails at its deadline
// with os.ErrDeadlineExceeded.
func TestReadDeadline(t *testing.T) {
	client, _, _, _ := connected(t, newMemNet(8))
	const d = 100 * time.Millisecond
	t0 := time.Now()
	client.SetReadDeadline(t0.Add(d))
	_, err := client.Read(make([]byte, 1))
	if el := time.Since(t0); !errors.Is(err, os.ErrDeadlineExceeded) || el < d || el > d+2*time.Second {
		t.Fatalf("read with nothing delivered: %v after %v, want os.ErrDeadlineExceeded at %v", err, el, d)
	}
}

// TestWriteDeadline: a Write blocked on a full window to a vanished peer
// fails at its deadline, having sent exactly the window.
func TestWriteDeadline(t *testing.T) {
	net := newMemNet(9)
	client, _, _, _ := connected(t, net)
	net.vanish()
	const d = 100 * time.Millisecond
	t0 := time.Now()
	client.SetWriteDeadline(t0.Add(d))
	n, err := client.Write(make([]byte, windowPackets*MaxPayload+1))
	if el := time.Since(t0); !errors.Is(err, os.ErrDeadlineExceeded) || el < d || el > d+2*time.Second {
		t.Fatalf("write past the window: %v after %v, want os.ErrDeadlineExceeded at %v", err, el, d)
	}
	if n != windowPackets*MaxPayload {
		t.Fatalf("write sent %d bytes before its deadline, want the window's %d", n, windowPackets*MaxPayload)
	}
}

// TestDeadlineZeroAndPast: a deadline already past fails Read and Write at
// once; the zero time disarms one, so a Read outlives the time it was set
// for and returns the bytes that arrive later.
func TestDeadlineZeroAndPast(t *testing.T) {
	client, server, _, _ := connected(t, newMemNet(10))
	past := time.Now().Add(-time.Second)
	client.SetReadDeadline(past)
	client.SetWriteDeadline(past)
	if _, err := client.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past its deadline: %v", err)
	}
	if n, err := client.Write([]byte("x")); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write past its deadline: %d, %v", n, err)
	}

	client.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	client.SetReadDeadline(time.Time{})
	client.SetWriteDeadline(time.Time{})
	got := make(chan error, 1)
	go func() {
		buf := make([]byte, 2)
		_, err := io.ReadFull(client, buf)
		if err == nil && string(buf) != "ok" {
			err = fmt.Errorf("read %q", buf)
		}
		got <- err
	}()
	time.Sleep(100 * time.Millisecond)
	if _, err := server.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("read after its deadline was disarmed: %v", err)
	}
	if _, err := client.Write([]byte("x")); err != nil {
		t.Fatalf("write after its deadline was disarmed: %v", err)
	}
}

// TestDeadlineRearmAllocs: re-arming a deadline, as the SMB server does for
// every streamed span, allocates nothing.
func TestDeadlineRearmAllocs(t *testing.T) {
	client, _, _, _ := connected(t, newMemNet(11))
	client.SetReadDeadline(time.Now().Add(time.Hour))
	client.SetWriteDeadline(time.Now().Add(time.Hour))
	allocs := testing.AllocsPerRun(100, func() {
		client.SetReadDeadline(time.Now().Add(time.Hour))
		client.SetWriteDeadline(time.Now().Add(time.Hour))
		client.SetReadDeadline(time.Time{})
	})
	if allocs != 0 {
		t.Fatalf("re-arming deadlines allocates %.1f times", allocs)
	}
}

// TestDeadPeerVerdict: with no deadline set, a Write blocked on a vanished
// peer ends with ErrClosed once the verdict budget passes; the connection
// leaves its endpoint and its retransmit goroutine exits.
func TestDeadPeerVerdict(t *testing.T) {
	const budget = 200 * time.Millisecond
	old := deadPeerAfter
	deadPeerAfter = budget
	t.Cleanup(func() { deadPeerAfter = old })

	net := newMemNet(12)
	client, _, cep, sep := connected(t, net)
	net.vanish()
	sep.Close() // its FIN is lost with everything else
	t0 := time.Now()
	_, err := client.Write(make([]byte, 2*windowPackets*MaxPayload))
	if el := time.Since(t0); !errors.Is(err, ErrClosed) || el < budget/2 {
		t.Fatalf("write to a vanished peer: %v after %v, want ErrClosed at the %v verdict", err, el, budget)
	}
	buf := make([]byte, 1<<20)
	for {
		cep.mu.Lock()
		left := len(cep.conns)
		cep.mu.Unlock()
		looping := strings.Contains(string(buf[:runtime.Stack(buf, true)]), "(*Conn).retransmitLoop")
		if left == 0 && !looping {
			break
		}
		if time.Since(t0) > budget+2*time.Second {
			t.Fatalf("after the verdict: %d connections still on the endpoint, retransmit goroutine running %v", left, looping)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
