package faults

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// TestSeedDeterminism: two injectors with the same seed deal the identical
// fault schedule; different seeds diverge.
func TestSeedDeterminism(t *testing.T) {
	cfg := Config{DropRate: 0.3, DelayRate: 0.2, PartialWriteRate: 0.1, Seed: 42}
	a, b := New(cfg), New(cfg)
	for i := 0; i < 1000; i++ {
		if a.roll() != b.roll() {
			t.Fatalf("same-seed injectors diverged at draw %d", i)
		}
	}
	c := New(Config{Seed: 43})
	same := 0
	d := New(Config{Seed: 42})
	for i := 0; i < 100; i++ {
		if c.roll() == d.roll() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("different seeds produced %d/100 equal draws", same)
	}
}

// TestConnDropLatch: after an injected drop, every later op fails with
// ErrInjected without touching the transport.
func TestConnDropLatch(t *testing.T) {
	// DropRate 1: the very first op drops.
	inj := New(Config{DropRate: 1, Seed: 1})
	a, b := net.Pipe()
	defer b.Close()
	conn := inj.WrapConn(a)
	if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("first write: got %v, want ErrInjected", err)
	}
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read after drop: got %v, want ErrInjected", err)
	}
	if got := inj.Stats().Drops; got != 1 {
		t.Fatalf("drops = %d, want 1 (dead latch must not re-draw)", got)
	}
}

// TestConnPartialWrite: a partial write pushes a strict prefix into the
// transport, then kills the connection.
func TestConnPartialWrite(t *testing.T) {
	inj := New(Config{PartialWriteRate: 1, Seed: 7})
	a, b := net.Pipe()
	defer b.Close()
	conn := inj.WrapConn(a)

	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 64)
		n, _ := io.ReadFull(b, buf)
		got <- buf[:n]
	}()

	payload := []byte("0123456789abcdef")
	n, err := conn.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("partial write: got err %v, want ErrInjected", err)
	}
	if n <= 0 || n >= len(payload) {
		t.Fatalf("partial write kept %d of %d bytes, want strict prefix", n, len(payload))
	}
	if prefix := <-got; len(prefix) != n {
		t.Fatalf("transport saw %d bytes, writer reported %d", len(prefix), n)
	}
	if inj.Stats().PartialWrites != 1 {
		t.Fatalf("stats: %+v, want 1 partial write", inj.Stats())
	}
}

// TestConnDelay: DelayRate 1 stalls every op but the op still succeeds.
func TestConnDelay(t *testing.T) {
	inj := New(Config{DelayRate: 1, MaxDelay: time.Millisecond, Seed: 3})
	a, b := net.Pipe()
	defer b.Close()
	conn := inj.WrapConn(a)
	go io.Copy(io.Discard, b)
	if _, err := conn.Write([]byte("x")); err != nil {
		t.Fatalf("delayed write failed: %v", err)
	}
	if inj.Stats().Delays != 1 {
		t.Fatalf("stats: %+v, want 1 delay", inj.Stats())
	}
}

// echoFrontend is a minimal Frontend: echoes bytes until closed. Close
// kills live connections too — the Frontend contract, matched by
// smb.Server.Close.
type echoFrontend struct {
	ln net.Listener

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func newEchoFrontend(addr string) (Frontend, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &echoFrontend{ln: ln, conns: make(map[net.Conn]struct{})}, nil
}

func (e *echoFrontend) Addr() string { return e.ln.Addr().String() }
func (e *echoFrontend) Serve() error {
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return err
		}
		e.mu.Lock()
		e.conns[conn] = struct{}{}
		e.mu.Unlock()
		go func() {
			defer conn.Close()
			io.Copy(conn, conn)
		}()
	}
}
func (e *echoFrontend) Close() error {
	e.mu.Lock()
	for conn := range e.conns {
		conn.Close()
	}
	e.mu.Unlock()
	return e.ln.Close()
}

// TestRestartableServer: crash breaks live connections, restart comes back
// on the same address, Crashes counts cycles.
func TestRestartableServer(t *testing.T) {
	rs, err := NewRestartableServer("127.0.0.1:0", newEchoFrontend)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	addr := rs.Addr()

	dial := func() net.Conn {
		t.Helper()
		var conn net.Conn
		for attempt := 0; attempt < 50; attempt++ {
			conn, err = net.Dial("tcp", addr)
			if err == nil {
				return conn
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("dial %s: %v", addr, err)
		return nil
	}

	roundTrip := func(conn net.Conn) error {
		if _, err := conn.Write([]byte("ping")); err != nil {
			return err
		}
		buf := make([]byte, 4)
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, err := io.ReadFull(conn, buf)
		return err
	}

	conn := dial()
	if err := roundTrip(conn); err != nil {
		t.Fatalf("pre-crash round trip: %v", err)
	}

	if err := rs.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	if err := roundTrip(conn); err == nil {
		t.Fatal("round trip on crashed server succeeded")
	}
	conn.Close()

	if err := rs.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := rs.Addr(); got != addr {
		t.Fatalf("address changed across restart: %s -> %s", addr, got)
	}
	conn2 := dial()
	defer conn2.Close()
	if err := roundTrip(conn2); err != nil {
		t.Fatalf("post-restart round trip: %v", err)
	}
	if rs.Crashes() != 1 {
		t.Fatalf("crashes = %d, want 1", rs.Crashes())
	}
}
