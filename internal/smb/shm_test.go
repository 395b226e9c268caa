package smb

import (
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"shmcaffe/internal/tensor"
)

// startShmServer launches a server exporting memfd segments: TCP for the
// frame protocol plus a unix-domain control socket for the fd-pass
// handshake, with the socket path advertised for auto-negotiation. Skips
// where the build has the transport compiled out.
func startShmServer(t *testing.T) (*Server, string) {
	t.Helper()
	if !ShmSupported() {
		t.Skip("shm transport not supported on this platform/build")
	}
	store := NewStore()
	if err := store.EnableShm(); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "smb.sock")
	uln, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetShmAddr(path)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve()
	}()
	var uwg sync.WaitGroup
	uwg.Add(1)
	go func() {
		defer uwg.Done()
		for {
			conn, err := uln.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	t.Cleanup(func() {
		uln.Close()
		uwg.Wait()
		srv.Close()
		<-done
	})
	return srv, path
}

// readF32 reads the first n float32s of h into a fresh slice.
func readF32(t *testing.T, c Client, h Handle, n int) []float32 {
	t.Helper()
	buf := make([]byte, n*4)
	if err := c.Read(h, 0, buf); err != nil {
		t.Fatal(err)
	}
	vals, err := tensor.Float32FromBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func dialShmT(t *testing.T, path string) *ShmClient {
	t.Helper()
	c, err := DialShm(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestShmClientRoundTrip drives every verb through mapped stripes: the
// segment is created over the control socket, mapped via the passed fd, and
// the data verbs never touch the wire.
func TestShmClientRoundTrip(t *testing.T) {
	_, path := startShmServer(t)
	c := dialShmT(t, path)

	const n = 3 * chunkBytes / 4 // 3 stripes of float32s
	key, err := c.Create("wg", n*4)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.Lookup("wg"); err != nil || got != key {
		t.Fatalf("lookup = %v, %v, want %v", got, err, key)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Mapped(h) {
		t.Fatal("memfd segment did not map")
	}
	if c.Lease() < 2 {
		t.Fatalf("client lease %d, want >= 2", c.Lease())
	}

	src := make([]float32, n)
	for i := range src {
		src[i] = float32(i % 101)
	}
	if err := c.Write(h, 0, tensor.Float32Bytes(src)); err != nil {
		t.Fatal(err)
	}
	got := readF32(t, c, h, n)
	for i := range got {
		if got[i] != src[i] {
			t.Fatalf("readback[%d] = %v, want %v", i, got[i], src[i])
		}
	}

	// Accumulate across two mapped segments.
	kd, err := c.Create("dw", n*4)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := c.Attach(kd)
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float32, n)
	for i := range ones {
		ones[i] = 1
	}
	if err := c.Write(hd, 0, tensor.Float32Bytes(ones)); err != nil {
		t.Fatal(err)
	}
	if err := c.Accumulate(h, hd); err != nil {
		t.Fatal(err)
	}
	got = readF32(t, c, h, n)
	for i := range got {
		if got[i] != src[i]+1 {
			t.Fatalf("accumulate[%d] = %v, want %v", i, got[i], src[i]+1)
		}
	}

	// Fused push: Wg += data with data landing in dw.
	if err := c.WriteAccumulate(h, hd, tensor.Float32Bytes(ones)); err != nil {
		t.Fatal(err)
	}
	got = readF32(t, c, h, n)
	for i := range got {
		if got[i] != src[i]+2 {
			t.Fatalf("write+accumulate[%d] = %v, want %v", i, got[i], src[i]+2)
		}
	}
	if st := c.Stats(); st.MappedOps == 0 || st.MappedSegments != 2 {
		t.Fatalf("stats %+v, want mapped traffic on 2 segments", st)
	}
	if err := c.Detach(h); err != nil {
		t.Fatal(err)
	}
	if err := c.Detach(hd); err != nil {
		t.Fatal(err)
	}
	if err := c.Free(key); err != nil {
		t.Fatal(err)
	}
}

// TestShmHeapSegmentWireFallback attaches a segment created before
// EnableShm: it cannot be mapped, so its data verbs ride the control socket
// while mapped segments on the same client stay zero-copy.
func TestShmHeapSegmentWireFallback(t *testing.T) {
	if !ShmSupported() {
		t.Skip("shm transport not supported on this platform/build")
	}
	store := NewStore()
	local := NewLocalClient(store)
	if _, err := local.Create("old", 64); err != nil {
		t.Fatal(err)
	}
	if err := store.EnableShm(); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "smb.sock")
	uln, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	go func() {
		for {
			conn, err := uln.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	t.Cleanup(func() { uln.Close(); srv.Close() })

	c := dialShmT(t, path)
	key, err := c.Lookup("old")
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	if c.Mapped(h) {
		t.Fatal("heap segment mapped, want wire fallback")
	}
	want := []float32{1, 2, 3, 4}
	if err := c.Write(h, 0, tensor.Float32Bytes(want)); err != nil {
		t.Fatal(err)
	}
	got := readF32(t, c, h, 4)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("wire readback %v, want %v", got, want)
		}
	}
	if st := c.Stats(); st.CtlOps == 0 {
		t.Fatalf("stats %+v, want wire-fallback traffic", st)
	}
}

// cutConn is a server-side control connection that, once its plan is armed,
// dies at a chosen point of the next wire-fallback push. Wrapping the
// connection also hides the unix socket from the fd-passing check, so no
// segment maps and every data verb of the client rides the wire.
type cutConn struct {
	net.Conn
	plan *cutPlan
}

// cutPlan counts the replies sent since arming (-1 = disarmed). A push is
// two frames, Write then SeqAccumulate: with lostAck false the connection
// dies right after the Write ack, before the fold frame is read; with
// lostAck true the fold is applied and its ack is swallowed.
type cutPlan struct {
	mu      sync.Mutex
	replies int // guarded by mu
	lostAck bool
}

func (c *cutConn) Write(b []byte) (int, error) {
	p := c.plan
	p.mu.Lock()
	k := -1
	if p.replies >= 0 {
		p.replies++
		k = p.replies
		if k == 2 || !p.lostAck {
			p.replies = -1
		}
	}
	p.mu.Unlock()
	switch {
	case k == 1 && !p.lostAck:
		n, err := c.Conn.Write(b)
		c.Conn.Close()
		return n, err
	case k == 2:
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(b)
}

// startCutShmServer serves a memfd-exporting store on a unix control socket
// whose every connection is a cutConn driven by plan, and returns the store
// and the socket path.
func startCutShmServer(t *testing.T, plan *cutPlan) (*Store, string) {
	t.Helper()
	if !ShmSupported() {
		t.Skip("shm transport not supported on this platform/build")
	}
	store := NewStore()
	if err := store.EnableShm(); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	uln, err := net.Listen("unix", filepath.Join(t.TempDir(), "smb.sock"))
	if err != nil {
		t.Fatal(err)
	}
	var uwg sync.WaitGroup
	uwg.Add(1)
	go func() {
		defer uwg.Done()
		for {
			conn, err := uln.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(&cutConn{Conn: conn, plan: plan}) //lint:ignore goleak joined by srv.Close in the cleanup below
		}
	}()
	t.Cleanup(func() { uln.Close(); uwg.Wait(); srv.Close() })
	return store, uln.Addr().String()
}

// TestShmWireFallbackPushExactlyOnce: a push that falls back to the control
// socket is a Write plus a fold stamped (ClientID, seq), retried across
// redials. Whether the socket dies between the two frames or eats the
// fold's ack, the server applies every push exactly once.
func TestShmWireFallbackPushExactlyOnce(t *testing.T) {
	for _, lostAck := range []bool{false, true} {
		plan := &cutPlan{replies: -1, lostAck: lostAck}
		store, path := startCutShmServer(t, plan)

		c, err := DialShmConfig(ShmConfig{Path: path, ClientID: 77})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		kw, err := c.Create("wg", 16)
		if err != nil {
			t.Fatal(err)
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
		if c.Mapped(wg) || c.Mapped(dw) {
			t.Fatal("segments mapped through a wrapped socket, want wire fallback")
		}

		const pushes = 3
		data := tensor.Float32Bytes([]float32{1, 2, 3, 4})
		for i := 0; i < pushes; i++ {
			if i == 1 {
				plan.mu.Lock()
				plan.replies = 0 // the second push loses its connection mid-flight
				plan.mu.Unlock()
			}
			if err := c.WriteAccumulate(wg, dw, data); err != nil {
				t.Fatalf("lostAck=%v push %d: %v", lostAck, i, err)
			}
		}
		st := store.Stats()
		if st.Accumulates != pushes {
			t.Fatalf("lostAck=%v: server applied %d accumulates for %d pushes", lostAck, st.Accumulates, pushes)
		}
		// Only a fold that was applied and then lost its ack may come back
		// as a duplicate.
		wantDups := int64(0)
		if lostAck {
			wantDups = 1
		}
		if st.SeqDuplicates != wantDups {
			t.Fatalf("lostAck=%v: %d duplicate acks, want %d", lostAck, st.SeqDuplicates, wantDups)
		}
		for i, v := range readF32(t, c, wg, 4) {
			if want := float32(pushes * (i + 1)); v != want {
				t.Fatalf("lostAck=%v: wg[%d] = %v, want %v", lostAck, i, v, want)
			}
		}
		if c.Stats().Reconnects < 1 {
			t.Fatalf("lostAck=%v: stats %+v, want a control-socket redial", lostAck, c.Stats())
		}
	}
}

// TestShmAutoNegotiate covers the transport registry's decision making:
// against an offering server "auto" yields shm; against a plain TCP server
// it falls back to tcp; forcing "shm" there is a hard error; forcing "tcp"
// against an offering server stays on the wire.
func TestShmAutoNegotiate(t *testing.T) {
	srv, _ := startShmServer(t)
	opts := DialOptions{Addr: srv.Addr(), OpTimeout: 5 * time.Second}
	c, name, err := DialAuto(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if name != "shm" {
		t.Fatalf("negotiated %q, want shm", name)
	}
	if _, ok := c.(*ShmClient); !ok {
		t.Fatalf("negotiated client is %T, want *ShmClient", c)
	}

	// Forced tcp against the same offering server.
	ct, err := DialTransport("tcp", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	if _, ok := ct.(*SupervisedClient); !ok {
		t.Fatalf("forced tcp client is %T, want *SupervisedClient", ct)
	}
	if _, err := ct.Create("tcp-side", 64); err != nil {
		t.Fatal(err)
	}

	// A plain server: auto degrades to tcp, forced shm errors.
	plain := startServer(t)
	popts := DialOptions{Addr: plain.Addr(), OpTimeout: 5 * time.Second}
	cp, name, err := DialAuto(popts)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if name != "tcp" {
		t.Fatalf("negotiated %q against plain server, want tcp", name)
	}
	if _, err := DialTransport("shm", popts); err == nil {
		t.Fatal("forced shm against a non-offering server succeeded")
	}
}

// TestShmCtlReconnect kills the control socket out from under the client:
// the next control verb redials, gets a fresh lease, and mapped segments
// keep working across the blip (the memfd is the process's reference, not
// the socket's).
func TestShmCtlReconnect(t *testing.T) {
	_, path := startShmServer(t)
	c := dialShmT(t, path)

	key, err := c.Create("wg", 64)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	oldLease := c.Lease()

	c.SupervisedClient.mu.Lock()
	c.conn.conn.Close() // yank the socket mid-session
	c.SupervisedClient.mu.Unlock()

	// Control verbs supervise: redial, fresh lease, lazy re-attach.
	if _, err := c.Lookup("wg"); err != nil {
		t.Fatalf("lookup after control-socket loss: %v", err)
	}
	if c.Lease() == oldLease || c.Lease() < 2 {
		t.Fatalf("lease %d after redial, want fresh lease != %d", c.Lease(), oldLease)
	}
	if st := c.Stats(); st.Reconnects < 1 {
		t.Fatalf("stats %+v, want at least one reconnect", st)
	}
	// The mapping survived the whole affair.
	if err := c.Write(h, 0, tensor.Float32Bytes([]float32{7})); err != nil {
		t.Fatal(err)
	}
	got := readF32(t, c, h, 1)
	if got[0] != 7 {
		t.Fatalf("mapped readback %v after reconnect, want 7", got[0])
	}
}

// TestShmUnmapAccounting pins the map-bytes gauge to per-connection truth:
// unmapping a handle the connection never mapped is rejected, a real unmap
// retires exactly what was mapped, and a duplicate unmap cannot drive the
// gauge negative.
func TestShmUnmapAccounting(t *testing.T) {
	srv, path := startShmServer(t)
	conn, err := net.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewStreamClient(conn)
	t.Cleanup(func() { sc.Close() })
	if _, err := sc.ShmHello(); err != nil {
		t.Fatal(err)
	}
	key, err := sc.Create("wg", 64)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sc.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	sh, _, err := sc.shmMap(h)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.close()

	store := srv.Store()
	if mb := store.ShmStats().MapBytes; mb <= 0 {
		t.Fatalf("map bytes %d after map, want > 0", mb)
	}
	h2, err := sc.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.ShmUnmap(h2); err == nil {
		t.Fatal("unmap of a never-mapped handle succeeded")
	}
	if err := sc.ShmUnmap(h); err != nil {
		t.Fatal(err)
	}
	if mb := store.ShmStats().MapBytes; mb != 0 {
		t.Fatalf("map bytes %d after unmap, want 0", mb)
	}
	if err := sc.ShmUnmap(h); err == nil {
		t.Fatal("duplicate unmap succeeded")
	}
	if mb := store.ShmStats().MapBytes; mb != 0 {
		t.Fatalf("map bytes %d after duplicate unmap, want 0", mb)
	}
}

// TestShmMapBytesReconcileOnConnDeath kills a client that mapped a segment
// and never sent the unmap verb: the server reconciles that connection's
// share out of the map-bytes gauge when the control connection dies.
func TestShmMapBytesReconcileOnConnDeath(t *testing.T) {
	srv, path := startShmServer(t)
	c := dialShmT(t, path)

	key, err := c.Create("wg", 64)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Mapped(h) {
		t.Fatal("segment did not map")
	}
	store := srv.Store()
	if mb := store.ShmStats().MapBytes; mb <= 0 {
		t.Fatalf("map bytes %d after map, want > 0", mb)
	}
	c.Close() // munmaps locally but never sends opShmUnmap
	deadline := time.Now().Add(5 * time.Second)
	for store.ShmStats().MapBytes != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("map bytes %d after connection death, want 0", store.ShmStats().MapBytes)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOpTimeoutDefaults pins the timeout defaulting every dial path shares
// (NewSupervisedClient, and through it DialShmConfig; negotiateShm): 0
// means 10s (never "no deadline"), negative disables.
func TestOpTimeoutDefaults(t *testing.T) {
	for in, want := range map[time.Duration]time.Duration{
		0:               10 * time.Second,
		-1:              0,
		2 * time.Second: 2 * time.Second,
	} {
		if got := opTimeoutOrDefault(in); got != want {
			t.Errorf("opTimeoutOrDefault(%v) = %v, want %v", in, got, want)
		}
	}
}

// TestShmLeaseReapOnConnClose is the in-process half of the crash drill
// (shm_proc_test.go does it across real processes): a stripe lock word left
// held by a dying control connection is reaped by the server, after which
// the server's own kernels make progress on that stripe again.
func TestShmLeaseReapOnConnClose(t *testing.T) {
	srv, path := startShmServer(t)
	c := dialShmT(t, path)

	key, err := c.Create("wg", 64)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	m := c.maps[h]
	lease := c.lease.Load()
	c.mu.Unlock()
	if m == nil {
		t.Fatal("segment did not map")
	}
	// Simulate a crash mid-accumulate: take the stripe word, then die
	// without unlocking (Close unmaps but never touches lock words — and
	// the mapping object keeps the word reachable for the assertion).
	m.sh.lockStripe(0, lease)
	c.Close()

	store := srv.Store()
	deadline := time.Now().Add(5 * time.Second)
	for store.ShmStats().ReapedLocks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server did not reap the dead lease's lock word")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The stripe is usable again: a server-side Write (which takes the
	// shared word with the server lease) completes instead of deadlocking.
	local := NewLocalClient(store)
	lh, err := local.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- local.Write(lh, 0, tensor.Float32Bytes([]float32{1})) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server-side write still blocked after the reap")
	}
}

// TestShmWriteAccumulateZeroAlloc holds the transport's headline contract:
// a mapped push is copy+add straight against the shared stripes — zero
// allocations per op (ISSUE 9 acceptance: 0 allocs/op on the shm path).
func TestShmWriteAccumulateZeroAlloc(t *testing.T) {
	_, path := startShmServer(t)
	c := dialShmT(t, path)

	const n = 1 << 18 // 1 MiB of float32s: the benchmarked push size
	kw, err := c.Create("wg", n*4)
	if err != nil {
		t.Fatal(err)
	}
	kd, err := c.Create("dw", n*4)
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
	if !c.Mapped(wg) || !c.Mapped(dw) {
		t.Fatal("segments did not map")
	}
	data := tensor.Float32Bytes(make([]float32, n))
	for i := 0; i < 4; i++ { // warm every lazily-allocated path
		if err := c.WriteAccumulate(wg, dw, data); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := c.WriteAccumulate(wg, dw, data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("mapped WriteAccumulate allocates %.1f per op, want 0", allocs)
	}
}

// TestShmCloseUnderTraffic detaches a handle and then closes the client
// while other goroutines run mapped kernels and control verbs on it: every
// call must return (cleanly or with an error), and no kernel may touch a
// mapping after its munmap — that would fault the whole test binary.
func TestShmCloseUnderTraffic(t *testing.T) {
	_, path := startShmServer(t)
	c := dialShmT(t, path)
	const n = 2 * chunkBytes / 4
	var hs [3]Handle
	for i, name := range []string{"wg", "dw", "spare"} {
		key, err := c.Create(name, n*4)
		if err != nil {
			t.Fatal(err)
		}
		if hs[i], err = c.Attach(key); err != nil {
			t.Fatal(err)
		}
		if !c.Mapped(hs[i]) {
			t.Fatalf("%s did not map", name)
		}
	}
	wg, dw, spare := hs[0], hs[1], hs[2]
	data := tensor.Float32Bytes(onesVec(n))
	buf := make([][]byte, 4)
	var workers sync.WaitGroup
	stop := make(chan struct{})
	for w := range buf {
		w := w
		buf[w] = make([]byte, n*4)
		workers.Add(1)
		go func() {
			defer workers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch w {
				case 0:
					_ = c.WriteAccumulate(wg, dw, data)
				case 1:
					_ = c.Read(spare, 0, buf[w])
				case 2:
					_ = c.Write(spare, 0, buf[w])
				default:
					if info, err := c.Snapshot(wg); err == nil {
						_ = c.SnapRelease(info.ID)
					}
				}
			}
		}()
	}
	// Let mapped kernels pile up before each teardown step.
	traffic := func() {
		for start := c.Stats().MappedOps; c.Stats().MappedOps < start+50; {
			time.Sleep(time.Millisecond)
		}
	}
	traffic()
	if err := c.Detach(spare); err != nil {
		t.Fatal(err)
	}
	traffic()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	workers.Wait()
	if err := c.WriteAccumulate(wg, dw, data); err == nil {
		t.Fatal("push on a closed client succeeded")
	}
}
