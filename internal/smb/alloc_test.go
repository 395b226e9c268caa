package smb

import (
	"testing"

	"shmcaffe/internal/telemetry"
	"shmcaffe/internal/tensor"
)

// Allocation regression guard (scripts/check.sh tier 2 runs this by name):
// steady-state SMB data-path operations — Store and StreamClient
// Read/Write/Accumulate — must perform zero heap allocations per op. The
// seed allocated a stats closure on every verb, a full decode + re-encode
// per Accumulate, and a fresh frame body per TCP message; any of those
// creeping back fails this test.

const allocVals = 4096 // spans a fraction of one chunk; large enough to be realistic

func setupAllocStore(t testing.TB) (*Store, Handle, Handle) {
	t.Helper()
	store := NewStore()
	// The guards run with telemetry enabled: latency histograms and
	// stripe-wait timing must stay inside the zero-alloc budget too.
	store.Instrument(telemetry.NewRegistry())
	gKey, err := store.Create("alloc/wg", allocVals*4)
	if err != nil {
		t.Fatal(err)
	}
	dKey, err := store.Create("alloc/dw", allocVals*4)
	if err != nil {
		t.Fatal(err)
	}
	hg, err := store.Attach(gKey)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := store.Attach(dKey)
	if err != nil {
		t.Fatal(err)
	}
	return store, hg, hd
}

func TestSteadyStateZeroAllocStore(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	if _, ok := tensor.Float32View(tensor.Float32Bytes(make([]float32, 16))); !ok {
		t.Skip("no zero-copy fast path on this platform")
	}
	store, hg, hd := setupAllocStore(t)
	buf := tensor.Float32Bytes(onesVec(allocVals))

	if n := testing.AllocsPerRun(100, func() {
		if err := store.Write(hd, 0, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Store.Write allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := store.Read(hg, 0, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Store.Read allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := store.Accumulate(hg, hd); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Store.Accumulate allocates %.1f per op, want 0", n)
	}
}

func TestSteadyStateZeroAllocStreamClient(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	if _, ok := tensor.Float32View(tensor.Float32Bytes(make([]float32, 16))); !ok {
		t.Skip("no zero-copy fast path on this platform")
	}
	store, _, _ := setupAllocStore(t)
	server, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	go server.Serve() //lint:ignore goleak joined by server.Close via the server's WaitGroup

	client, err := Dial(server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Instrument(telemetry.NewRegistry())
	gKey, err := client.Lookup("alloc/wg")
	if err != nil {
		t.Fatal(err)
	}
	hg, err := client.Attach(gKey)
	if err != nil {
		t.Fatal(err)
	}
	dKey, err := client.Lookup("alloc/dw")
	if err != nil {
		t.Fatal(err)
	}
	hd, err := client.Attach(dKey)
	if err != nil {
		t.Fatal(err)
	}
	buf := tensor.Float32Bytes(onesVec(allocVals))

	// Warm the per-connection scratch buffers to steady-state size.
	for i := 0; i < 4; i++ {
		if err := client.Write(hd, 0, buf); err != nil {
			t.Fatal(err)
		}
		if err := client.Read(hg, 0, buf); err != nil {
			t.Fatal(err)
		}
		if err := client.Accumulate(hg, hd); err != nil {
			t.Fatal(err)
		}
	}

	// The TCP stack itself may allocate inside the kernel-boundary calls on
	// some platforms; allow a tiny epsilon rather than exactly zero for the
	// socket-bound ops, but the protocol layer must not add per-op garbage.
	const eps = 0.5
	if n := testing.AllocsPerRun(50, func() {
		if err := client.Write(hd, 0, buf); err != nil {
			t.Fatal(err)
		}
	}); n > eps {
		t.Errorf("StreamClient.Write allocates %.1f per op, want ~0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := client.Read(hg, 0, buf); err != nil {
			t.Fatal(err)
		}
	}); n > eps {
		t.Errorf("StreamClient.Read allocates %.1f per op, want ~0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := client.Accumulate(hg, hd); err != nil {
			t.Fatal(err)
		}
	}); n > eps {
		t.Errorf("StreamClient.Accumulate allocates %.1f per op, want ~0", n)
	}
}

// TestSteadyStateZeroAllocWriteAccumulate pins the chunked WRITE+ACCUMULATE
// path: the store-side chunk apply is exactly allocation-free, and the
// StreamClient's multi-chunk pipelined push stays within the socket epsilon
// (the protocol layer itself adds no per-op garbage).
func TestSteadyStateZeroAllocWriteAccumulate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	if _, ok := tensor.Float32View(tensor.Float32Bytes(make([]float32, 16))); !ok {
		t.Skip("no zero-copy fast path on this platform")
	}
	// Three full stripes: the push pipelines as three chunks.
	const vals = 3 * chunkBytes / 4
	store := NewStore()
	store.Instrument(telemetry.NewRegistry())
	gKey, err := store.Create("wa/wg", vals*4)
	if err != nil {
		t.Fatal(err)
	}
	dKey, err := store.Create("wa/dw", vals*4)
	if err != nil {
		t.Fatal(err)
	}
	hg, err := store.Attach(gKey)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := store.Attach(dKey)
	if err != nil {
		t.Fatal(err)
	}
	buf := tensor.Float32Bytes(onesVec(vals))
	lc := NewLocalClient(store)
	for i := 0; i < 4; i++ { // warm pools
		if err := lc.WriteAccumulate(hg, hd, buf); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := lc.WriteAccumulate(hg, hd, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("LocalClient.WriteAccumulate allocates %.1f per op, want 0", n)
	}

	server, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	go server.Serve() //lint:ignore goleak joined by server.Close via the server's WaitGroup
	client, err := Dial(server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Instrument(telemetry.NewRegistry())
	wgKey, err := client.Lookup("wa/wg")
	if err != nil {
		t.Fatal(err)
	}
	whg, err := client.Attach(wgKey)
	if err != nil {
		t.Fatal(err)
	}
	dwKey, err := client.Lookup("wa/dw")
	if err != nil {
		t.Fatal(err)
	}
	whd, err := client.Attach(dwKey)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // warm the wire scratch to steady-state size
		if err := client.WriteAccumulate(whg, whd, buf); err != nil {
			t.Fatal(err)
		}
	}
	const eps = 0.5 // see TestSteadyStateZeroAllocStreamClient
	if n := testing.AllocsPerRun(50, func() {
		if err := client.WriteAccumulate(whg, whd, buf); err != nil {
			t.Fatal(err)
		}
	}); n > eps {
		t.Errorf("StreamClient.WriteAccumulate allocates %.1f per op, want ~0", n)
	}
}

// TestReadInt64SlotsZeroAlloc: the slot reader decodes into the caller's
// slice and stages through the pooled scratch — zero allocations. This is
// the staleness probe's per-T1 path, so it is pinned exactly.
func TestReadInt64SlotsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	store := NewStore()
	key, err := store.Create("ctl", 16*8)
	if err != nil {
		t.Fatal(err)
	}
	c := NewLocalClient(store)
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := WriteInt64(c, h, i, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]int64, 12)
	// Warm the pool.
	if err := ReadInt64SlotsAt(c, h, 4, out); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if err := ReadInt64SlotsAt(c, h, 4, out); err != nil || out[3] != 7 {
			t.Fatalf("out=%v err=%v", out, err)
		}
	})
	if n != 0 {
		t.Errorf("ReadInt64SlotsAt allocates %.1f per call, want 0", n)
	}
}
