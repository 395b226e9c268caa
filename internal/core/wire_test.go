package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"shmcaffe/internal/smb"
)

// wireSpecialBits are the float32 bit patterns the view path must carry
// untouched: a quiet NaN with a payload, a signalling-NaN pattern, −0, the
// smallest subnormal, ±Inf and ±MaxFloat32.
var wireSpecialBits = []uint32{
	0x7fc12345, 0x7fa00001, 0x80000000, 0x00000001,
	0x7f800000, 0xff800000, 0x7f7fffff, 0xff7fffff,
}

// wireVector tiles the special patterns, interleaved with ordinary values,
// over n elements (n ≥ 1024 puts a TCP push on the vectored-write path).
func wireVector(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		if i%2 == 0 {
			v[i] = math.Float32frombits(wireSpecialBits[(i/2)%len(wireSpecialBits)])
		} else {
			v[i] = float32(i) * 0.25
		}
	}
	return v
}

func leBytes(vals []float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// startWireServer serves store over loopback TCP and, where the platform
// maps segments, offers the shm control socket too.
func startWireServer(t *testing.T, store *smb.Store) *smb.Server {
	t.Helper()
	srv, err := smb.NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve()
	}()
	var uln net.Listener
	var uwg sync.WaitGroup
	if smb.ShmSupported() {
		path := filepath.Join(t.TempDir(), "smb.sock")
		if uln, err = net.Listen("unix", path); err != nil {
			t.Fatal(err)
		}
		srv.SetShmAddr(path)
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
	}
	t.Cleanup(func() {
		if uln != nil {
			uln.Close()
			uwg.Wait()
		}
		srv.Close()
		<-done
	})
	return srv
}

// TestPushAndReadBitExactOnWire: ReadGlobal and PushIncrement hand the
// client the float buffers' own memory, so what reaches the segments must be
// exactly the little-endian encoding of the values — NaN payloads,
// signalling-NaN patterns, −0 and subnormals included — on the in-process,
// TCP and shm clients alike, and the caller's delta must come back
// unchanged.
func TestPushAndReadBitExactOnWire(t *testing.T) {
	const elems = 2048
	store := smb.NewStore()
	if smb.ShmSupported() {
		if err := store.EnableShm(); err != nil {
			t.Fatal(err)
		}
	}
	srv := startWireServer(t, store)
	opts := smb.DialOptions{Addr: srv.Addr(), OpTimeout: 5 * time.Second}
	transports := []string{"local", "tcp"}
	if smb.ShmSupported() {
		transports = append(transports, "shm")
	}
	for _, name := range transports {
		t.Run(name, func(t *testing.T) {
			var client smb.Client = smb.NewLocalClient(store)
			if name != "local" {
				c, err := smb.DialTransport(name, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				client = c
			}
			seed := wireVector(elems)
			bufs, err := SetupBuffersPolling(client, "wire/"+name, 0, 1, elems, seed,
				BootstrapOptions{PollInterval: time.Millisecond, Timeout: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer bufs.Close()

			got := make([]float32, elems)
			if err := bufs.ReadGlobal(got); err != nil {
				t.Fatal(err)
			}
			if i := sameBits(got, seed); i >= 0 {
				t.Fatalf("ReadGlobal [%d] = %#08x, seeded %#08x", i, math.Float32bits(got[i]), math.Float32bits(seed[i]))
			}

			delta := wireVector(elems)
			for i := 1; i < elems; i += 2 {
				delta[i] = -delta[i]
			}
			want := append([]float32(nil), delta...)
			if err := bufs.PushIncrement(delta); err != nil {
				t.Fatal(err)
			}
			if i := sameBits(delta, want); i >= 0 {
				t.Fatalf("push changed the caller's delta at [%d]: %#08x, was %#08x", i, math.Float32bits(delta[i]), math.Float32bits(want[i]))
			}
			raw := make([]byte, 4*elems)
			if err := client.Read(bufs.incr, 0, raw); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, leBytes(want)) {
				t.Fatal("ΔWx segment bytes differ from the little-endian encoding of the delta")
			}

			// Whatever the fold made of Wg, ReadGlobal returns its bits.
			if err := client.Read(bufs.global, 0, raw); err != nil {
				t.Fatal(err)
			}
			if err := bufs.ReadGlobal(got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(leBytes(got), raw) {
				t.Fatal("ReadGlobal after the push differs from the Wg segment's bytes")
			}
		})
	}
}

// BenchmarkReadGlobal and BenchmarkPushIncrement time the worker's half of
// T1 and of the push on the wide model's 1.32M parameters over the
// in-process client — the per-layer rows under core.t1_ms and the hidden
// push.
func BenchmarkReadGlobal(b *testing.B) {
	bufs := benchBuffers(b)
	dst := make([]float32, bufs.Elems())
	b.SetBytes(int64(4 * bufs.Elems()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bufs.ReadGlobal(dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPushIncrement(b *testing.B) {
	bufs := benchBuffers(b)
	delta := make([]float32, bufs.Elems())
	b.SetBytes(int64(4 * bufs.Elems()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bufs.PushIncrement(delta); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBuffers(b *testing.B) *JobBuffers {
	b.Helper()
	const elems = 1_320_000
	bufs, err := SetupBuffersPolling(smb.NewLocalClient(smb.NewStore()), "bench", 0, 1, elems,
		make([]float32, elems), BootstrapOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return bufs
}
