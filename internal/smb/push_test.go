package smb

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"shmcaffe/internal/rds"
	"shmcaffe/internal/telemetry"
	"shmcaffe/internal/tensor"
)

// The push — WriteAccumulate, Fig. 6 T.A2–T.A3 — must be observably the
// same verb on every client: afterwards src holds the pushed data, dst has
// gained it exactly once (bitwise equal to Write + Accumulate on a fresh
// store), every backing server counted one Write plus one Accumulate, and
// both segments' versions moved by one.

// pushTestVals spans 2.5 lock stripes (chunkBytes/4 float32 per stripe)
// plus an odd tail, so pushes cross stripe boundaries with a short final
// stripe.
const pushTestVals = 2*(chunkBytes/4) + chunkBytes/8 + 7

// patternVec fills a float32 vector with a mix of signs and magnitudes.
func patternVec(n, seed int) []float32 {
	v := make([]float32, n)
	for i := range v {
		switch (i + seed) % 4 {
		case 0:
			v[i] = float32(i%17) * 0.375
		case 1:
			v[i] = -float32(i%13) * 1.25
		case 2:
			v[i] = float32(seed) + float32(i%7)/8
		default:
			v[i] = 0.0625 * float32((i*seed)%29)
		}
	}
	return v
}

// setupPair creates a dst/src segment pair of n floats on store and returns
// their handles.
func setupPair(t *testing.T, store *Store, job string, n int) (dst, src Handle) {
	t.Helper()
	return setupPairBytes(t, store, job, n*4)
}

// setupPairBytes is setupPair for segment sizes that are not whole floats.
func setupPairBytes(t *testing.T, store *Store, job string, size int) (dst, src Handle) {
	t.Helper()
	gKey, err := store.Create(job+"/wg", size)
	if err != nil {
		t.Fatal(err)
	}
	dKey, err := store.Create(job+"/dw", size)
	if err != nil {
		t.Fatal(err)
	}
	if dst, err = store.Attach(gKey); err != nil {
		t.Fatal(err)
	}
	if src, err = store.Attach(dKey); err != nil {
		t.Fatal(err)
	}
	return dst, src
}

// pushCounts returns the Write and Accumulate verbs a store has served,
// including those mapped clients applied through its exported segments.
func pushCounts(s *Store) (writes, accs int64) {
	st := s.Stats()
	return st.Writes + s.shmCtlSum(shmOffWrites), st.Accumulates + s.shmCtlSum(shmOffAccumulates)
}

// segVersion reads the version of the named segment straight off a store.
func segVersion(t *testing.T, s *Store, name string) uint64 {
	t.Helper()
	key, err := s.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Detach(h)
	v, err := s.Version(h)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// clientCase is one row of the client table: every Client implementation,
// dialed against a fresh store. The push and contract tests below run the
// same assertions over all of them.
type clientCase struct {
	c     Client
	store *Store
	// tracer is the span tracer of the server the client's frames reach;
	// nil when no verb crosses a wire. Clients are dialed with trace
	// propagation on.
	tracer *telemetry.Tracer
	// session is the supervised session under the client, nil when it has
	// none; yanking its connection forces a reconnect.
	session *SupervisedClient
}

// tracedServer is startServer with a span tracer installed, so the server
// grants the trace extension.
func tracedServer(t *testing.T) (*Server, *telemetry.Tracer) {
	srv := startServer(t)
	tr := telemetry.NewTracer(4096)
	srv.SetTracer(tr)
	return srv, tr
}

// serveRDS serves srv on a fresh rds endpoint — the smbserver -rds wiring —
// passing each accepted connection through wrap, and returns the endpoint's
// address.
func serveRDS(t testing.TB, srv *Server, wrap func(*rds.Conn) Conn) string {
	t.Helper()
	ep, err := rds.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ep.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				srv.ServeConn(wrap(conn))
			}()
		}
	}()
	t.Cleanup(func() { ep.Close(); wg.Wait() })
	return ep.Addr()
}

var clientTable = []struct {
	name string
	dial func(t *testing.T) clientCase
}{
	{"local", func(t *testing.T) clientCase {
		store := NewStore()
		return clientCase{c: NewLocalClient(store), store: store}
	}},
	{"stream-pipe", func(t *testing.T) clientCase {
		srv, tr := tracedServer(t)
		near, far := net.Pipe()
		go srv.ServeConn(far)
		c := NewStreamClient(near)
		t.Cleanup(func() { c.Close() })
		if ok, err := c.NegotiateTrace(); err != nil || !ok {
			t.Fatalf("trace negotiation = %v, %v", ok, err)
		}
		return clientCase{c: c, store: srv.Store(), tracer: tr}
	}},
	{"supervised-tcp", func(t *testing.T) clientCase {
		srv, tr := tracedServer(t)
		c := NewSupervisedClient(SupervisedConfig{Addr: srv.Addr(), Trace: true})
		t.Cleanup(func() { c.Close() })
		return clientCase{c: c, store: srv.Store(), tracer: tr, session: c}
	}},
	{"rds", func(t *testing.T) clientCase {
		srv, tr := tracedServer(t)
		addr := serveRDS(t, srv, func(c *rds.Conn) Conn { return c })
		c, err := DialTransport("rds", DialOptions{Addr: addr, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return clientCase{c: c, store: srv.Store(), tracer: tr, session: c.(*SupervisedClient)}
	}},
	{"shm", func(t *testing.T) clientCase {
		srv, path := startShmServer(t)
		tr := telemetry.NewTracer(4096)
		srv.SetTracer(tr)
		c, err := DialShmConfig(ShmConfig{Path: path, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return clientCase{c: c, store: srv.Store(), tracer: tr, session: c.SupervisedClient}
	}},
}

func TestPushEquivalence(t *testing.T) {
	const n = pushTestVals
	init := tensor.Float32Bytes(patternVec(n, 3))
	data := tensor.Float32Bytes(patternVec(n, 11))

	// Reference: Write + Accumulate on a fresh store.
	refStore := NewStore()
	refDst, refSrc := setupPair(t, refStore, "ref", n)
	for _, step := range []error{
		refStore.Write(refDst, 0, init),
		refStore.Write(refSrc, 0, data),
		refStore.Accumulate(refDst, refSrc),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	want := make([]byte, n*4)
	if err := refStore.Read(refDst, 0, want); err != nil {
		t.Fatal(err)
	}

	for _, tc := range clientTable {
		t.Run(tc.name, func(t *testing.T) {
			cc := tc.dial(t)
			c, store := cc.c, cc.store
			gKey, err := c.Create("push/wg", n*4)
			if err != nil {
				t.Fatal(err)
			}
			dKey, err := c.Create("push/dw", n*4)
			if err != nil {
				t.Fatal(err)
			}
			hg, err := c.Attach(gKey)
			if err != nil {
				t.Fatal(err)
			}
			hd, err := c.Attach(dKey)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Write(hg, 0, init); err != nil {
				t.Fatal(err)
			}

			type mark struct {
				writes, accs int64
				wgV, dwV     uint64
			}
			snap := func() (m mark) {
				m.writes, m.accs = pushCounts(store)
				m.wgV = segVersion(t, store, "push/wg")
				m.dwV = segVersion(t, store, "push/dw")
				return m
			}
			before := snap()
			if err := c.WriteAccumulate(hg, hd, data); err != nil {
				t.Fatal(err)
			}
			after := snap()
			if w, a := after.writes-before.writes, after.accs-before.accs; w != 1 || a != 1 {
				t.Errorf("store counted %d writes / %d accumulates for one push, want 1/1", w, a)
			}
			if d := after.wgV - before.wgV; d != 1 {
				t.Errorf("dst version moved by %d, want 1", d)
			}
			if d := after.dwV - before.dwV; d != 1 {
				t.Errorf("src version moved by %d, want 1", d)
			}

			got := make([]byte, n*4)
			if err := c.Read(hd, 0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Error("src does not hold the pushed data")
			}
			if err := c.Read(hg, 0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("dst diverges from Write + Accumulate (not dst += data exactly once)")
			}
		})
	}
}

// TestClientContract is the rest of the verb set, asserted identically on
// every client: a snapshot cut reports the store's size and version, serves
// the cut's bytes whatever is written afterwards, and releases cleanly; a
// trace context set on the client reaches every server its frames reach and
// stops reaching them once cleared.
func TestClientContract(t *testing.T) {
	const size = pushTestVals * 4
	first := tensor.Float32Bytes(patternVec(pushTestVals, 5))
	second := tensor.Float32Bytes(patternVec(pushTestVals, 9))
	for _, tc := range clientTable {
		t.Run(tc.name, func(t *testing.T) {
			cc := tc.dial(t)
			c := cc.c
			key, err := c.Create("contract/wg", size)
			if err != nil {
				t.Fatal(err)
			}
			h, err := c.Attach(key)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Write(h, 0, first); err != nil {
				t.Fatal(err)
			}

			info, err := c.Snapshot(h)
			if err != nil {
				t.Fatal(err)
			}
			if v := segVersion(t, cc.store, "contract/wg"); info.Size != size || info.Version != v {
				t.Errorf("snapshot reports size %d version %d, store says %d / %d",
					info.Size, info.Version, size, v)
			}
			if err := c.Write(h, 0, second); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, size)
			if err := c.SnapRead(info.ID, 0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, first) {
				t.Error("snapshot read does not serve the bytes of the cut")
			}
			if err := c.SnapRelease(info.ID); err != nil {
				t.Fatal(err)
			}
			if err := c.SnapRead(info.ID, 0, got); !errors.Is(err, ErrUnknownSnapshot) {
				t.Errorf("read of a released snapshot: %v, want ErrUnknownSnapshot", err)
			}
			if n := cc.store.SnapCount(); n != 0 {
				t.Errorf("store still pins %d snapshots after release", n)
			}

			tctx := TraceContext{TraceID: 0x5eed0000 + uint64(len(tc.name)), SpanID: telemetry.NextSpanID(1 << 48), Rank: 1, Iter: 3}
			wantID := fmt.Sprintf("%016x", tctx.TraceID)
			stamped := func(tr *telemetry.Tracer) (n int) {
				for _, ev := range tracedSpans(tr, "srv.dispatch") {
					if ev.Args["trace_id"] == wantID {
						n++
					}
				}
				return n
			}
			// A snapshot cycle crosses the wire on every remote client, the
			// mapped shm one included.
			cycle := func() {
				t.Helper()
				info, err := c.Snapshot(h)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.SnapRelease(info.ID); err != nil {
					t.Fatal(err)
				}
			}
			c.SetTraceContext(tctx)
			cycle()
			c.ClearTraceContext()
			if cc.tracer == nil {
				return
			}
			count := stamped(cc.tracer)
			if count == 0 {
				t.Errorf("server recorded no span of trace %s", wantID)
			}
			cycle()
			if n := stamped(cc.tracer); n != count {
				t.Errorf("%d spans joined the trace after ClearTraceContext", n-count)
			}
		})
	}
}

// TestTraceRestampAfterReconnect: a session dialed with tracing on
// negotiates again on every fresh connection and re-stamps the caller's
// context, so a trace survives the connection dying under it.
func TestTraceRestampAfterReconnect(t *testing.T) {
	for _, tc := range clientTable {
		t.Run(tc.name, func(t *testing.T) {
			cc := tc.dial(t)
			if cc.session == nil {
				t.Skip("no supervised session to reconnect")
			}
			tctx := TraceContext{TraceID: 0xfeed, SpanID: telemetry.NextSpanID(1 << 48)}
			cc.c.SetTraceContext(tctx)
			defer cc.c.ClearTraceContext()
			if _, err := cc.c.Create("restamp/wg", 64); err != nil {
				t.Fatal(err)
			}
			before := len(tracedSpans(cc.tracer, "srv.dispatch"))
			if before == 0 {
				t.Fatal("no traced span before the reconnect")
			}

			cc.session.mu.Lock()
			cc.session.conn.conn.Close() // yank the socket mid-session
			cc.session.mu.Unlock()
			if _, err := cc.c.Lookup("restamp/wg"); err != nil {
				t.Fatalf("lookup across the reconnect: %v", err)
			}
			if cc.session.Stats().Reconnects < 1 {
				t.Fatal("the yanked connection was not re-dialed")
			}
			spans := tracedSpans(cc.tracer, "srv.dispatch")
			if len(spans) <= before {
				t.Fatal("no traced span on the fresh connection")
			}
			want := fmt.Sprintf("%016x", tctx.TraceID)
			if got := spans[len(spans)-1].Args["trace_id"]; got != want {
				t.Fatalf("span after the reconnect carries trace %s, want %s", got, want)
			}
		})
	}
}

// TestWriteAccumulateErrors exercises the failure surface: bad handles,
// payloads that do not cover the segment, mismatched and misaligned
// segments — and checks a wire connection stays usable after a failed push.
// The mismatched and misaligned pairs run on every client, for Accumulate
// and WriteAccumulate alike: each fails with the sentinel and leaves dst's
// bytes and version as they were.
func TestWriteAccumulateErrors(t *testing.T) {
	store := NewStore()
	dst, src := setupPair(t, store, "job", 256)
	lc := NewLocalClient(store)

	if err := lc.WriteAccumulate(dst, 9999, make([]byte, 256*4)); !errors.Is(err, ErrUnknownHandle) {
		t.Fatalf("unknown src handle: got %v", err)
	}
	for _, n := range []int{64, 257 * 4} {
		if err := lc.WriteAccumulate(dst, src, make([]byte, n)); !errors.Is(err, ErrSizeMismatch) {
			t.Fatalf("%d-byte payload into a %d-byte segment: got %v", n, 256*4, err)
		}
	}
	oKey, err := store.Create("job/other", 128*4)
	if err != nil {
		t.Fatal(err)
	}
	other, err := store.Attach(oKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := lc.WriteAccumulate(dst, other, make([]byte, 128*4)); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("size mismatch: got %v", err)
	}
	oddDst, oddSrc := setupPairBytes(t, store, "odd", 10)
	if err := lc.WriteAccumulate(oddDst, oddSrc, make([]byte, 10)); !errors.Is(err, ErrNotFloatAligned) {
		t.Fatalf("misaligned segments: got %v", err)
	}

	srv := startServer(t)
	c := dialT(t, srv)
	gKey, err := c.Create("w/wg", 256*4)
	if err != nil {
		t.Fatal(err)
	}
	hg, err := c.Attach(gKey)
	if err != nil {
		t.Fatal(err)
	}
	dKey, err := c.Create("w/dw", 256*4)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := c.Attach(dKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAccumulate(hg, 424242, make([]byte, 256*4)); !errors.Is(err, ErrUnknownHandle) {
		t.Fatalf("wire unknown handle: got %v", err)
	}
	if err := c.WriteAccumulate(hg, hd, tensor.Float32Bytes(onesVec(256))); err != nil {
		t.Fatalf("connection unusable after failed push: %v", err)
	}
	if got := readF32(t, c, hg, 256); got[0] != 1 {
		t.Fatalf("post-recovery push wrote %v, want 1", got[0])
	}

	// odd spans two stripes, so a fold that started before noticing the
	// ragged tail would already have changed the first one.
	const odd = chunkBytes + 2
	for _, tc := range clientTable {
		t.Run(tc.name, func(t *testing.T) {
			cc := tc.dial(t)
			c := cc.c
			handles := make(map[string]Handle)
			for _, seg := range []struct {
				name string
				size int
			}{{"err/wg", 256 * 4}, {"err/small", 128 * 4}, {"err/odd-wg", odd}, {"err/odd-dw", odd}} {
				key, err := c.Create(seg.name, seg.size)
				if err != nil {
					t.Fatal(err)
				}
				h, err := c.Attach(key)
				if err != nil {
					t.Fatal(err)
				}
				fill := append(tensor.Float32Bytes(patternVec(seg.size/4, len(seg.name))), 0x3f, 0x3f)
				if err := c.Write(h, 0, fill[:seg.size]); err != nil {
					t.Fatal(err)
				}
				handles[seg.name] = h
			}
			for _, k := range []struct {
				dst, src string
				want     error
			}{{"err/wg", "err/small", ErrSizeMismatch}, {"err/odd-wg", "err/odd-dw", ErrNotFloatAligned}} {
				for _, fused := range []bool{false, true} {
					dst, src := handles[k.dst], handles[k.src]
					size := 256 * 4
					if k.dst == "err/odd-wg" {
						size = odd
					}
					before, after := make([]byte, size), make([]byte, size)
					if err := c.Read(dst, 0, before); err != nil {
						t.Fatal(err)
					}
					v0 := segVersion(t, cc.store, k.dst)
					var err error
					if fused {
						payload := make([]byte, size)
						if k.want == ErrSizeMismatch {
							payload = payload[:128*4] // covers src, not dst
						}
						err = c.WriteAccumulate(dst, src, payload)
					} else {
						err = c.Accumulate(dst, src)
					}
					if !errors.Is(err, k.want) {
						t.Errorf("%s += %s (fused %v): got %v, want %v", k.dst, k.src, fused, err, k.want)
					}
					if err := c.Read(dst, 0, after); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(before, after) {
						t.Errorf("%s += %s (fused %v): the failed op changed dst's bytes", k.dst, k.src, fused)
					}
					if v := segVersion(t, cc.store, k.dst); v != v0 {
						t.Errorf("%s += %s (fused %v): the failed op moved dst's version %d -> %d", k.dst, k.src, fused, v0, v)
					}
				}
			}
		})
	}
}

// TestInterleavedPushes is the -race test of the wire push: two TCP clients
// push into the same destination segment concurrently. Their accumulates
// interleave stripe by stripe on the server; the per-stripe exclusive locks
// must preserve every increment exactly.
func TestInterleavedPushes(t *testing.T) {
	srv := startServer(t)
	setup := dialT(t, srv)

	const n = pushTestVals
	const rounds = 8
	gKey, err := setup.Create("race/wg", n*4)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		c := dialT(t, srv)
		dKey, err := c.Create(SegmentNames{Job: "race"}.Increment(w), n*4)
		if err != nil {
			t.Fatal(err)
		}
		hd, err := c.Attach(dKey)
		if err != nil {
			t.Fatal(err)
		}
		hg, err := c.Attach(gKey)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = float32(w + 1)
		}
		data := tensor.Float32Bytes(vals)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := c.WriteAccumulate(hg, hd, data); err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Every element received rounds×1 from worker 0 and rounds×2 from
	// worker 1 — small integers, so float32 addition is exact.
	hg, err := setup.Attach(gKey)
	if err != nil {
		t.Fatal(err)
	}
	want := float32(rounds * (1 + 2))
	for i, v := range readF32(t, setup, hg, n) {
		if v != want {
			t.Fatalf("element %d = %v after interleaved pushes, want %v", i, v, want)
		}
	}
	if st := srv.Store().Stats(); st.Accumulates != 2*rounds {
		t.Fatalf("interleaved pushes counted %d accumulates, want %d", st.Accumulates, 2*rounds)
	}
}

// TestCrossedPushes runs two pushers whose dst/src roles are swapped
// (A: X ⇐ Y-data, B: Y ⇐ X-data) — the crossed pattern that would deadlock
// without segment-key lock ordering — over the wire and against the fused
// in-process kernel.
func TestCrossedPushes(t *testing.T) {
	const n = pushTestVals
	data := tensor.Float32Bytes(onesVec(n))
	srv := startServer(t)
	clients := map[string]func() Client{
		"tcp":   func() Client { return dialT(t, srv) },
		"local": func() Client { return NewLocalClient(srv.Store()) },
	}
	for name, dial := range clients {
		setup := dial()
		xKey, err := setup.Create(name+"/x", n*4)
		if err != nil {
			t.Fatal(err)
		}
		yKey, err := setup.Create(name+"/y", n*4)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			w := w
			c := dial()
			hx, err := c.Attach(xKey)
			if err != nil {
				t.Fatal(err)
			}
			hy, err := c.Attach(yKey)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < 6; r++ {
					var err error
					if w == 0 {
						err = c.WriteAccumulate(hx, hy, data)
					} else {
						err = c.WriteAccumulate(hy, hx, data)
					}
					if err != nil {
						t.Errorf("%s crossed worker %d round %d: %v", name, w, r, err)
						return
					}
				}
			}()
		}
		wg.Wait() // completing at all is the assertion (no deadlock)
	}
}

// TestWriteAccumulateSelf pins the degenerate dst==src push and
// accumulate on every client, through two handles of one segment: the
// payload lands and is immediately doubled, under a single stripe lock per
// stripe (a mapped client maps each handle separately, and must still see
// one segment, not two whose lock words it would take twice).
func TestWriteAccumulateSelf(t *testing.T) {
	const n = chunkBytes/4 + 64 // two stripes
	vals := patternVec(n, 7)
	for _, tc := range clientTable {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.dial(t).c
			key, err := c.Create("self", n*4)
			if err != nil {
				t.Fatal(err)
			}
			h, err := c.Attach(key)
			if err != nil {
				t.Fatal(err)
			}
			h2, err := c.Attach(key)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				if err := c.WriteAccumulate(h, h2, tensor.Float32Bytes(vals)); err != nil {
					done <- err
					return
				}
				done <- c.Accumulate(h2, h)
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("self-target push and accumulate did not complete (deadlock)")
			}
			for i, got := range readF32(t, c, h, n) {
				want := 4 * vals[i] // pushed, doubled by the push, doubled again
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("self push element %d = %v, want %v", i, got, want)
				}
			}
		})
	}
}
