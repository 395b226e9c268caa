package smb

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"shmcaffe/internal/rds"
	"shmcaffe/internal/tensor"
)

// Benchmarks for the SMB hot path; scripts/check.sh tier 2 runs them with
// -benchtime 1x as a smoke test. SetBytes is the logical bytes moved per
// op so ns/op converts to throughput. Cross-process transport costs are
// the repo benchmark's smb.{read,push,snap_cycle}_ms.* rows, not these.

// benchVals spans several lock stripes so Accumulate exercises the
// per-stripe locking protocol, not the single-stripe fast case.
const benchVals = 1 << 18 // 1 MiB of float32 per segment

func setupBenchStore(b *testing.B, workers int) (*Store, Handle, []Handle) {
	b.Helper()
	store := NewStore()
	hg, deltas := setupBenchSegments(b, NewLocalClient(store), workers)
	return store, hg, deltas
}

// setupBenchSegments creates, through c, one Wg segment and workers ΔWx
// segments of benchVals float32s each, the ΔWx ones filled with ones.
func setupBenchSegments(b *testing.B, c Client, workers int) (Handle, []Handle) {
	b.Helper()
	attach := func(name string) Handle {
		key, err := c.Create(name, benchVals*4)
		if err != nil {
			b.Fatal(err)
		}
		h, err := c.Attach(key)
		if err != nil {
			b.Fatal(err)
		}
		return h
	}
	hg := attach("bench/wg")
	ones := tensor.Float32Bytes(onesVec(benchVals))
	deltas := make([]Handle, workers)
	for w := range deltas {
		deltas[w] = attach(fmt.Sprintf("bench/dw%d", w))
		if err := c.Write(deltas[w], 0, ones); err != nil {
			b.Fatal(err)
		}
	}
	return hg, deltas
}

// benchClients runs fn on a Wg/ΔWx pair behind each client that runs the
// store's stripe code in its own process: local (the in-process Store) and
// shm-mapped (a ShmClient whose verbs run against the server's memfd
// segments, mapped into this process).
func benchClients(b *testing.B, fn func(b *testing.B, c Client, hg, hd Handle)) {
	b.Run("local", func(b *testing.B) {
		c := NewLocalClient(NewStore())
		hg, deltas := setupBenchSegments(b, c, 1)
		fn(b, c, hg, deltas[0])
	})
	b.Run("shm-mapped", func(b *testing.B) {
		_, path := startShmServer(b)
		c, err := DialShmConfig(ShmConfig{Path: path})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		hg, deltas := setupBenchSegments(b, c, 1)
		if !c.Mapped(hg) || !c.Mapped(deltas[0]) {
			b.Fatal("bench segments did not map")
		}
		fn(b, c, hg, deltas[0])
	})
}

func BenchmarkStoreWrite(b *testing.B) {
	benchClients(b, func(b *testing.B, c Client, hg, _ Handle) {
		buf := tensor.Float32Bytes(onesVec(benchVals))
		benchLoop(b, func() error { return c.Write(hg, 0, buf) })
	})
}

func BenchmarkStoreRead(b *testing.B) {
	benchClients(b, func(b *testing.B, c Client, hg, _ Handle) {
		buf := make([]byte, benchVals*4)
		benchLoop(b, func() error { return c.Read(hg, 0, buf) })
	})
}

// BenchmarkStoreWriteAccumulate times the fused push (ΔWx lands in its
// segment and folds into Wg in one sweep) of one benchVals increment.
func BenchmarkStoreWriteAccumulate(b *testing.B) {
	benchClients(b, func(b *testing.B, c Client, hg, hd Handle) {
		data := tensor.Float32Bytes(onesVec(benchVals))
		benchLoop(b, func() error { return c.WriteAccumulate(hg, hd, data) })
	})
}

// benchLoop times b.N calls of op, each moving one benchVals segment.
func benchLoop(b *testing.B, op func() error) {
	b.SetBytes(benchVals * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreAccumulate measures concurrent accumulates into one
// shared global — the SEASGD contention point the chunk striping exists
// for. Each parallel worker owns a private delta segment; only the
// destination stripes are contended.
func BenchmarkStoreAccumulate(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			store, hg, deltas := setupBenchStore(b, workers)
			b.SetBytes(benchVals * 4)
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int32
			b.SetParallelism(max(1, workers/runtime.GOMAXPROCS(0)))
			b.RunParallel(func(pb *testing.PB) {
				// Each RunParallel goroutine claims its own delta segment.
				w := int(next.Add(1)-1) % len(deltas)
				hd := deltas[w]
				for pb.Next() {
					if err := store.Accumulate(hg, hd); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkStreamRoundTrip times one verb's round trip to an in-process
// server: a 16 KiB Write over TCP, and a Write and a Read of 64 KiB and of
// one wide-model Wg (5.3 MB) over loopback rds, where bodies and replies
// past sgMinPayload stream through the stripes as on every transport.
func BenchmarkStreamRoundTrip(b *testing.B) {
	b.Run("tcp/write/16KiB", func(b *testing.B) {
		c, err := Dial(startServer(b).Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		benchRoundTrip(b, c, 16<<10, false)
	})
	for _, size := range []struct {
		name  string
		bytes int
	}{{"64KiB", 64 << 10}, {"5.3MB", 4 * 1_320_000}} {
		for _, read := range []bool{false, true} {
			verb := "write"
			if read {
				verb = "read"
			}
			b.Run("rds/"+verb+"/"+size.name, func(b *testing.B) {
				addr := serveRDS(b, startServer(b), func(c *rds.Conn) Conn { return c })
				ep, err := rds.ListenUDP("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer ep.Close()
				conn, err := ep.Dial(addr)
				if err != nil {
					b.Fatal(err)
				}
				benchRoundTrip(b, NewStreamClient(conn), size.bytes, read)
			})
		}
	}
}

// benchRoundTrip times c's Read (read) or Write of a whole n-byte segment.
func benchRoundTrip(b *testing.B, c *StreamClient, n int, read bool) {
	key, err := c.Create("bench/rt", n)
	if err != nil {
		b.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		b.Fatal(err)
	}
	buf := tensor.Float32Bytes(onesVec(n / 4))
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if read {
			err = c.Read(h, 0, buf)
		} else {
			err = c.Write(h, 0, buf)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
