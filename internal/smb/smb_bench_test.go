package smb

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

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
	gKey, err := store.Create("bench/wg", benchVals*4)
	if err != nil {
		b.Fatal(err)
	}
	hg, err := store.Attach(gKey)
	if err != nil {
		b.Fatal(err)
	}
	ones := tensor.Float32Bytes(onesVec(benchVals))
	deltas := make([]Handle, workers)
	for w := range deltas {
		dKey, err := store.Create(fmt.Sprintf("bench/dw%d", w), benchVals*4)
		if err != nil {
			b.Fatal(err)
		}
		hd, err := store.Attach(dKey)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.Write(hd, 0, ones); err != nil {
			b.Fatal(err)
		}
		deltas[w] = hd
	}
	return store, hg, deltas
}

func BenchmarkStoreWrite(b *testing.B) {
	store, hg, _ := setupBenchStore(b, 1)
	buf := tensor.Float32Bytes(onesVec(benchVals))
	b.SetBytes(benchVals * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.Write(hg, 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreRead(b *testing.B) {
	store, hg, _ := setupBenchStore(b, 1)
	buf := make([]byte, benchVals*4)
	b.SetBytes(benchVals * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.Read(hg, 0, buf); err != nil {
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

func BenchmarkStreamRoundTrip(b *testing.B) {
	store := NewStore()
	srv, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve()

	client, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	key, err := client.Create("bench/rt", 4096*4)
	if err != nil {
		b.Fatal(err)
	}
	h, err := client.Attach(key)
	if err != nil {
		b.Fatal(err)
	}
	buf := tensor.Float32Bytes(onesVec(4096))
	b.SetBytes(4096 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Write(h, 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}
