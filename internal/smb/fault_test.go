package smb

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"shmcaffe/internal/faults"
	"shmcaffe/internal/rds"
	"shmcaffe/internal/tensor"
)

// Fault-injection tests for the supervised SMB data path: reconnect across
// server restarts, exactly-once pushes under connection drops, deadline
// poisoning, and handler exit accounting.

// fastRetry is a SupervisedConfig tuned for tests: millisecond backoff and
// a generous attempt budget so seeded fault schedules never exhaust it.
func fastRetry(addr string) SupervisedConfig {
	return SupervisedConfig{
		Addr:        addr,
		OpTimeout:   2 * time.Second,
		MaxAttempts: 25,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		Seed:        1,
	}
}

// startRestartable runs an SMB server behind a crash/restart harness. The
// Store persists across restarts (the factory closes over it), modelling a
// memory-server process that dies and comes back over durable segments.
func startRestartable(t *testing.T, store *Store) *faults.RestartableServer {
	t.Helper()
	rs, err := faults.NewRestartableServer("127.0.0.1:0", func(addr string) (faults.Frontend, error) {
		srv, err := NewServer(store, addr)
		if err != nil {
			return nil, err
		}
		return srv, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	return rs
}

func TestSupervisedReconnectAcrossRestart(t *testing.T) {
	store := NewStore()
	rs := startRestartable(t, store)

	c := NewSupervisedClient(fastRetry(rs.Addr()))
	defer c.Close()

	key, err := c.Create("job/wg", 32)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("hello, durable segment store!..!")
	if err := c.Write(h, 0, want); err != nil {
		t.Fatal(err)
	}

	// Kill the serving plane. The client's next op must reconnect, replay
	// the attach for h, and succeed against the surviving store.
	if err := rs.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := rs.Restart(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := c.Read(h, 0, got); err != nil {
		t.Fatalf("read after restart: %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("read after restart = %q, want %q", got, want)
	}
	if st := c.Stats(); st.Reconnects < 1 {
		t.Fatalf("reconnects = %d, want >= 1 after a crash", st.Reconnects)
	}
}

// TestSupervisedExactlyOnceUnderDrops is the acceptance invariant at the
// wire level: with seeded random connection drops injected under the
// client, every logical push still folds into the destination exactly once
// — the store's accumulate counter equals the client's push counter, and
// the accumulated values match a fault-free run.
func TestSupervisedExactlyOnceUnderDrops(t *testing.T) {
	srv := startServer(t)
	inj := faults.New(faults.Config{DropRate: 0.05, Seed: 7})

	cfg := fastRetry(srv.Addr())
	cfg.Dial = func(addr string) (*StreamClient, error) {
		nc, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w: %w", addr, ErrTransport, err)
		}
		return NewStreamClient(inj.WrapConn(nc)), nil
	}
	c := NewSupervisedClient(cfg)
	defer c.Close()

	const elems = 8
	wgKey, err := c.Create("job/wg", elems*4)
	if err != nil {
		t.Fatal(err)
	}
	dwKey, err := c.Create("job/dw", elems*4)
	if err != nil {
		t.Fatal(err)
	}
	wg, err := c.Attach(wgKey)
	if err != nil {
		t.Fatal(err)
	}
	dw, err := c.Attach(dwKey)
	if err != nil {
		t.Fatal(err)
	}

	ones := make([]float32, elems)
	for i := range ones {
		ones[i] = 1
	}
	delta := tensor.Float32Bytes(ones)

	const pushes = 300
	for i := 0; i < pushes; i++ {
		if err := c.WriteAccumulate(wg, dw, delta); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}

	got := make([]float32, elems)
	buf := make([]byte, elems*4)
	if err := c.Read(wg, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := tensor.DecodeFloat32(buf, got); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != pushes {
			t.Fatalf("wg[%d] = %v, want %v (pushes double- or under-applied)", i, v, float32(pushes))
		}
	}

	st := c.Stats()
	acc := srv.Store().Stats().Accumulates
	if st.Pushes != pushes {
		t.Fatalf("client pushes = %d, want %d", st.Pushes, pushes)
	}
	if acc != pushes {
		t.Fatalf("server accumulates = %d, want exactly %d (client pushes)", acc, pushes)
	}
	if inj.Stats().Drops == 0 {
		t.Fatal("fault schedule injected no drops; the test exercised nothing")
	}
	if st.Retries == 0 {
		t.Fatal("drops occurred but the client never retried")
	}
}

// cutListener wraps every accepted connection in a cutConn sharing plan.
type cutListener struct {
	net.Listener
	plan *cutPlan
}

func (l *cutListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &cutConn{Conn: conn, plan: l.plan}, nil
}

// netRDS gives an rds connection the net.Conn surface cutConn wraps; the
// server only ever calls Read, Write and Close.
type netRDS struct{ *rds.Conn }

func (netRDS) LocalAddr() net.Addr              { return nil }
func (netRDS) RemoteAddr() net.Addr             { return nil }
func (netRDS) SetDeadline(time.Time) error      { return nil }
func (netRDS) SetReadDeadline(time.Time) error  { return nil }
func (netRDS) SetWriteDeadline(time.Time) error { return nil }

// TestLostReplyContract pins what a caller sees when the connection dies
// after the server applied a verb but before its reply arrived — once, over
// every session that can retry (TCP, rds and the shm control socket — all
// the same SupervisedClient): Create resolves to the segment it already
// made, SnapRelease of the pin it already dropped succeeds, Free is
// single-shot and reports the transport error with the segment gone, and
// the push folds exactly once.
func TestLostReplyContract(t *testing.T) {
	type session struct {
		c     Client
		store *Store
		plan  *cutPlan
	}
	sessions := map[string]func(t *testing.T) session{
		"supervised-tcp": func(t *testing.T) session {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			plan := &cutPlan{replies: -1, lostAck: true}
			srv := NewServerFromListener(NewStore(), &cutListener{Listener: ln, plan: plan})
			served := make(chan struct{})
			go func() { defer close(served); srv.Serve() }()
			t.Cleanup(func() { srv.Close(); <-served })
			c := NewSupervisedClient(fastRetry(srv.Addr()))
			t.Cleanup(func() { c.Close() })
			return session{c, srv.Store(), plan}
		},
		"rds": func(t *testing.T) session {
			plan := &cutPlan{replies: -1, lostAck: true}
			srv := startServer(t)
			addr := serveRDS(t, srv, func(c *rds.Conn) io.ReadWriteCloser {
				return &cutConn{Conn: netRDS{c}, plan: plan}
			})
			c, err := DialTransport("rds", DialOptions{Addr: addr, ClientID: 79})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return session{c, srv.Store(), plan}
		},
		"shm": func(t *testing.T) session {
			plan := &cutPlan{replies: -1, lostAck: true}
			store, path := startCutShmServer(t, plan)
			c, err := DialShmConfig(ShmConfig{Path: path, ClientID: 78})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return session{c, store, plan}
		},
	}
	for name, dial := range sessions {
		t.Run(name, func(t *testing.T) {
			s := dial(t)
			c, store := s.c, s.store
			// loseReply arms the plan so the reply of the frame-th request
			// frame from now is swallowed with the connection.
			loseReply := func(frame int) {
				s.plan.mu.Lock()
				s.plan.replies = 2 - frame
				s.plan.mu.Unlock()
			}

			loseReply(1)
			kw, err := c.Create("wg", 16)
			if err != nil {
				t.Fatalf("create whose reply was lost: %v", err)
			}
			if got, err := store.Lookup("wg"); err != nil || got != kw {
				t.Fatalf("create returned key %d, store has %d (%v)", kw, got, err)
			}
			kd, err := c.Create("dw", 16)
			if err != nil {
				t.Fatal(err)
			}
			wg, err := c.Attach(kw)
			if err != nil {
				t.Fatal(err)
			}
			dw, err := c.Attach(kd)
			if err != nil {
				t.Fatal(err)
			}

			info, err := c.Snapshot(wg)
			if err != nil {
				t.Fatal(err)
			}
			loseReply(1)
			if err := c.SnapRelease(info.ID); err != nil {
				t.Fatalf("snap-release whose reply was lost: %v", err)
			}
			if n := store.SnapCount(); n != 0 {
				t.Fatalf("%d snapshots still pinned after release", n)
			}

			// Re-attach both handles on the fresh connection first, so the
			// push is exactly its two frames.
			readF32(t, c, wg, 4)
			readF32(t, c, dw, 4)
			before := store.Stats()
			loseReply(2) // Write is acked, the fold's ack is lost
			if err := c.WriteAccumulate(wg, dw, tensor.Float32Bytes([]float32{1, 2, 3, 4})); err != nil {
				t.Fatalf("push whose fold ack was lost: %v", err)
			}
			after := store.Stats()
			if a, d := after.Accumulates-before.Accumulates, after.SeqDuplicates-before.SeqDuplicates; a != 1 || d != 1 {
				t.Fatalf("push applied %d times with %d duplicate acks, want 1 and 1", a, d)
			}

			kv, err := c.Create("victim", 16)
			if err != nil {
				t.Fatal(err)
			}
			loseReply(1)
			if err := c.Free(kv); !errors.Is(err, ErrTransport) {
				t.Fatalf("free whose reply was lost: %v, want the transport error (never retried)", err)
			}
			if _, err := store.Lookup("victim"); !errors.Is(err, ErrUnknownSegment) {
				t.Fatalf("victim after the free: %v, want it gone", err)
			}
			if got := readF32(t, c, wg, 4); got[3] != 4 {
				t.Fatalf("session unusable after the lost free: wg = %v", got)
			}
		})
	}
}

// TestOpDeadlinePoisons: a configured op timeout bounds a round trip whose
// reply never arrives, and the fired deadline poisons the connection — the
// abandoned reply could otherwise pair with a later request.
func TestOpDeadlinePoisons(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	silent := make(chan net.Conn, 1)
	go func() { // accepts, then never answers
		if conn, err := ln.Accept(); err == nil {
			silent <- conn
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer func() { (<-silent).Close() }()

	c.SetTimeouts(100 * time.Millisecond)
	start := time.Now()
	_, err = c.Lookup("wg")
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTransport) || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Lookup against a silent server = %v, want ErrTransport and os.ErrDeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("Lookup took %v, want ~100ms op budget", elapsed)
	}
	if _, err := c.Lookup("wg"); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("op after fired deadline = %v, want poisoned-connection error", err)
	}
}

// TestServerHandlerErrorSurfaced: a connection dying mid-frame is counted
// and logged instead of being swallowed (the seed dropped every handler
// exit silently).
func TestServerHandlerErrorSurfaced(t *testing.T) {
	srv := startServer(t)
	var mu sync.Mutex
	var lines []string
	srv.SetLogf(func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})

	nc, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write([]byte{0x10, 0x00}); err != nil { // half a frame header
		t.Fatal(err)
	}
	nc.Close()

	// The handler counts the error, then logs it: wait for both.
	logged := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), lines...)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.ConnErrors() == 0 || len(logged()) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ConnErrors = %d, log lines = %q, want 1 and a handler-exit line after a mid-frame close",
				srv.ConnErrors(), logged())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := logged(); !strings.Contains(got[0], "smb") {
		t.Fatalf("log lines = %q, want one smb handler-exit line", got)
	}
}

// TestCleanCloseNotCounted: an orderly client disconnect between frames is
// not a connection error.
func TestCleanCloseNotCounted(t *testing.T) {
	srv := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("wg", 64); err != nil {
		t.Fatal(err)
	}
	c.Close()
	time.Sleep(50 * time.Millisecond) // let the handler observe EOF
	if n := srv.ConnErrors(); n != 0 {
		t.Fatalf("ConnErrors = %d after a clean close, want 0", n)
	}
}

// TestServerCloseLeavesNoHandlers: after Close returns — with connections
// still open and idle between frames — every handler goroutine has exited.
func TestServerCloseLeavesNoHandlers(t *testing.T) {
	baseline := runtime.NumGoroutine()

	store := NewStore()
	srv, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { defer close(served); srv.Serve() }()

	clients := make([]*StreamClient, 3)
	for i := range clients {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	key, err := clients[0].Create("wg", 64)
	if err != nil {
		t.Fatal(err)
	}
	// Every connection has a handler parked in its frame read.
	for _, c := range clients[1:] {
		if _, err := c.Attach(key); err != nil {
			t.Fatal(err)
		}
	}

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close deadlocked behind idle connections")
	}
	<-served
	for _, c := range clients {
		c.Close()
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after Close: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSeqAccumulateDedup drives the stamped opcode directly: a replayed
// (client, seq) pair must acknowledge as a duplicate without re-applying.
func TestSeqAccumulateDedup(t *testing.T) {
	srv := startServer(t)
	c := dialT(t, srv)

	wgKey, err := c.Create("wg", 16)
	if err != nil {
		t.Fatal(err)
	}
	dwKey, err := c.Create("dw", 16)
	if err != nil {
		t.Fatal(err)
	}
	wg, _ := c.Attach(wgKey)
	dw, _ := c.Attach(dwKey)
	if err := c.Write(dw, 0, tensor.Float32Bytes([]float32{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}

	applied, err := c.SeqAccumulate(wg, dw, 42, 1)
	if err != nil || !applied {
		t.Fatalf("first SeqAccumulate = (%v, %v), want (true, nil)", applied, err)
	}
	applied, err = c.SeqAccumulate(wg, dw, 42, 1) // the retry replay
	if err != nil || applied {
		t.Fatalf("replayed SeqAccumulate = (%v, %v), want (false, nil)", applied, err)
	}
	if applied, err := c.SeqAccumulate(wg, dw, 43, 1); err != nil || !applied {
		t.Fatalf("different client, same seq = (%v, %v), want (true, nil)", applied, err)
	}

	st := srv.Store().Stats()
	if st.Accumulates != 2 {
		t.Fatalf("accumulates = %d, want 2 (one per distinct (client,seq))", st.Accumulates)
	}
	if st.SeqDuplicates != 1 {
		t.Fatalf("seq duplicates = %d, want 1", st.SeqDuplicates)
	}
	got := make([]float32, 4)
	buf := make([]byte, 16)
	if err := c.Read(wg, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := tensor.DecodeFloat32(buf, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[3] != 8 {
		t.Fatalf("wg = %v, want exactly twice the delta", got)
	}
}

// TestSupervisedExactlyOnceProperty sweeps the exactly-once invariant over
// several fault schedules: per-seed random connection drops layered under
// the client plus a whole-server crash/restart mid-run. Whatever the
// schedule, the fold count must equal the push count and the accumulated
// values must match a fault-free run.
func TestSupervisedExactlyOnceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed fault sweep")
	}
	for _, seed := range []uint64{3, 17, 101, 4242} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			store := NewStore()
			rs := startRestartable(t, store)
			inj := faults.New(faults.Config{DropRate: 0.08, Seed: seed})

			cfg := fastRetry(rs.Addr())
			cfg.Seed = seed
			cfg.Dial = func(addr string) (*StreamClient, error) {
				nc, err := net.DialTimeout("tcp", addr, time.Second)
				if err != nil {
					return nil, fmt.Errorf("dial %s: %w: %w", addr, ErrTransport, err)
				}
				return NewStreamClient(inj.WrapConn(nc)), nil
			}
			c := NewSupervisedClient(cfg)
			defer c.Close()

			const elems = 4
			wgKey, err := c.Create("job/wg", elems*4)
			if err != nil {
				t.Fatal(err)
			}
			dwKey, err := c.Create("job/dw", elems*4)
			if err != nil {
				t.Fatal(err)
			}
			wg, _ := c.Attach(wgKey)
			dw, _ := c.Attach(dwKey)

			delta := tensor.Float32Bytes([]float32{1, 1, 1, 1})
			const pushes = 80
			for i := 0; i < pushes; i++ {
				if i == pushes/2 {
					if err := rs.CrashFor(20 * time.Millisecond); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.WriteAccumulate(wg, dw, delta); err != nil {
					t.Fatalf("push %d: %v", i, err)
				}
			}

			got := make([]float32, elems)
			buf := make([]byte, elems*4)
			if err := c.Read(wg, 0, buf); err != nil {
				t.Fatal(err)
			}
			if err := tensor.DecodeFloat32(buf, got); err != nil {
				t.Fatal(err)
			}
			for i, v := range got {
				if v != pushes {
					t.Fatalf("wg[%d] = %v, want %v", i, v, float32(pushes))
				}
			}
			if acc, p := store.Stats().Accumulates, c.Stats().Pushes; acc != p || p != pushes {
				t.Fatalf("accumulates = %d, pushes = %d, want both %d", acc, p, pushes)
			}
		})
	}
}

// TestSupervisedHasNoCallerStampedPush: the stamped accumulate with a
// caller-chosen (client, seq) is a bare-connection verb only. A supervised
// session draws its own stamp; exposing the raw verb there would let a
// caller poison the dedup table for the session's ClientID.
func TestSupervisedHasNoCallerStampedPush(t *testing.T) {
	type stamped interface {
		SeqAccumulate(dst, src Handle, client, seq uint64) (bool, error)
	}
	if _, ok := any((*StreamClient)(nil)).(stamped); !ok {
		t.Fatal("StreamClient lost SeqAccumulate")
	}
	if _, ok := any((*SupervisedClient)(nil)).(stamped); ok {
		t.Fatal("SupervisedClient exposes a caller-stamped SeqAccumulate")
	}
	if _, ok := any((*ShmClient)(nil)).(stamped); ok {
		t.Fatal("ShmClient exposes a caller-stamped SeqAccumulate")
	}
}
