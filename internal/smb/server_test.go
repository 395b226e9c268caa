package smb

import (
	"errors"
	"math"
	"sync"
	"testing"

	"shmcaffe/internal/tensor"
)

// startServer launches a server on a random port and registers cleanup.
func startServer(t testing.TB) *Server {
	t.Helper()
	srv, err := NewServer(NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve() // returns on Close
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return srv
}

func dialT(t *testing.T, srv *Server) *StreamClient {
	t.Helper()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestTCPRoundTrip(t *testing.T) {
	srv := startServer(t)
	c := dialT(t, srv)

	key, err := c.Create("wg", 12)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup("wg")
	if err != nil || got != key {
		t.Fatalf("lookup %v, %v", got, err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(h, 0, tensor.Float32Bytes([]float32{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 12)
	if err := c.Read(h, 0, buf); err != nil {
		t.Fatal(err)
	}
	vals, _ := tensor.Float32FromBytes(buf)
	if vals[2] != 3 {
		t.Fatalf("read back %v", vals)
	}
	if err := c.Detach(h); err != nil {
		t.Fatal(err)
	}
	if err := c.Free(key); err != nil {
		t.Fatal(err)
	}
}

func TestTCPAccumulate(t *testing.T) {
	srv := startServer(t)
	c := dialT(t, srv)

	kw, _ := c.Create("wg", 8)
	kd, _ := c.Create("dw", 8)
	hw, _ := c.Attach(kw)
	hd, _ := c.Attach(kd)
	if err := c.Write(hw, 0, tensor.Float32Bytes([]float32{1, 1})); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(hd, 0, tensor.Float32Bytes([]float32{2, 3})); err != nil {
		t.Fatal(err)
	}
	if err := c.Accumulate(hw, hd); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if err := c.Read(hw, 0, buf); err != nil {
		t.Fatal(err)
	}
	vals, _ := tensor.Float32FromBytes(buf)
	if vals[0] != 3 || vals[1] != 4 {
		t.Fatalf("accumulated %v", vals)
	}
}

// TestTCPErrorsCrossWire: well-known errors survive serialization and match
// with errors.Is on the client side.
func TestTCPErrorsCrossWire(t *testing.T) {
	srv := startServer(t)
	c := dialT(t, srv)

	c.Create("dup", 8)
	if _, err := c.Create("dup", 8); !errors.Is(err, ErrSegmentExists) {
		t.Fatalf("want ErrSegmentExists, got %v", err)
	}
	if _, err := c.Lookup("absent"); !errors.Is(err, ErrUnknownSegment) {
		t.Fatalf("want ErrUnknownSegment, got %v", err)
	}
	if _, err := c.Attach(12345); !errors.Is(err, ErrUnknownSegment) {
		t.Fatalf("want ErrUnknownSegment, got %v", err)
	}
	key, _ := c.Create("seg", 8)
	h, _ := c.Attach(key)
	if err := c.Read(h, 5, make([]byte, 8)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	// An offset whose end overflows int must be refused, not wrap past the
	// range check into a stripe index that panics the server — whether the
	// body is read whole or streamed, the reply staged or streamed.
	const near = math.MaxInt64 - 16
	for _, n := range []int{32, sgMinPayload} {
		if err := c.Read(h, near, make([]byte, n)); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("%d-byte read at MaxInt64-16: want ErrOutOfRange, got %v", n, err)
		}
		if err := c.Write(h, near, make([]byte, n)); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("%d-byte write at MaxInt64-16: want ErrOutOfRange, got %v", n, err)
		}
	}
	if err := c.Write(h, 0, make([]byte, 8)); err != nil {
		t.Fatalf("connection unusable after the refused ranges: %v", err)
	}
}

// TestTCPMultipleClientsShareSegments mirrors Fig. 2: the master creates,
// workers attach by broadcast key and all see each other's writes.
func TestTCPMultipleClientsShareSegments(t *testing.T) {
	srv := startServer(t)
	master := dialT(t, srv)

	key, err := master.Create("shared", 4)
	if err != nil {
		t.Fatal(err)
	}
	// "Broadcast" the key to 4 workers, each with its own connection.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			h, err := c.Attach(key)
			if err != nil {
				t.Error(err)
				return
			}
			if err := c.Write(h, 0, []byte{byte(w + 1)}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	hm, _ := master.Attach(key)
	buf := make([]byte, 1)
	if err := master.Read(hm, 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] < 1 || buf[0] > 4 {
		t.Fatalf("unexpected byte %d", buf[0])
	}
}

// TestTCPConcurrentAccumulate is the lost-update test over the real wire.
func TestTCPConcurrentAccumulate(t *testing.T) {
	srv := startServer(t)
	master := dialT(t, srv)

	const elems = 16
	const workers = 4
	const rounds = 10
	kw, err := master.Create("wg", elems*4)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			hw, err := c.Attach(kw)
			if err != nil {
				t.Error(err)
				return
			}
			names := SegmentNames{Job: "tcp"}
			kd, err := c.Create(names.Increment(w), elems*4)
			if err != nil {
				t.Error(err)
				return
			}
			hd, err := c.Attach(kd)
			if err != nil {
				t.Error(err)
				return
			}
			ones := make([]float32, elems)
			for i := range ones {
				ones[i] = 1
			}
			for r := 0; r < rounds; r++ {
				if err := c.Write(hd, 0, tensor.Float32Bytes(ones)); err != nil {
					t.Error(err)
					return
				}
				if err := c.Accumulate(hw, hd); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	hm, _ := master.Attach(kw)
	buf := make([]byte, elems*4)
	if err := master.Read(hm, 0, buf); err != nil {
		t.Fatal(err)
	}
	vals, _ := tensor.Float32FromBytes(buf)
	for i, v := range vals {
		if v != workers*rounds {
			t.Fatalf("wg[%d] = %v, want %d", i, v, workers*rounds)
		}
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := NewServer(NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLargePayloadTransfer(t *testing.T) {
	srv := startServer(t)
	c := dialT(t, srv)

	// 4 MB segment — larger than typical socket buffers, exercising the
	// length-prefixed framing across many partial reads.
	const size = 4 << 20
	key, err := c.Create("big", size)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := c.Attach(key)
	src := make([]byte, size)
	rng := tensor.NewRNG(1)
	for i := range src {
		src[i] = byte(rng.Uint64())
	}
	if err := c.Write(h, 0, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, size)
	if err := c.Read(h, 0, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if src[i] != dst[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}

// TestCreateOversizedRejected: a Create size off the wire that no frame
// could ever fill is refused by the server's arm with an error reply — it
// must not reach the store's make() (which panics on a size the runtime
// cannot satisfy and takes the server down) — and the session stays usable.
func TestCreateOversizedRejected(t *testing.T) {
	srv := startServer(t)
	c := dialT(t, srv)
	for _, size := range []int{maxFrame + 1, 1 << 62} {
		if _, err := c.Create("huge", size); err == nil {
			t.Fatalf("Create(size %d) succeeded, want an error reply", size)
		}
	}
	if _, err := c.Create("ok", 16); err != nil {
		t.Fatalf("session unusable after the rejected creates: %v", err)
	}
}
