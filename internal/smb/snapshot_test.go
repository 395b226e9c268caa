package smb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"shmcaffe/internal/tensor"
)

// Torn-read regression suite. Store.Read is atomic per 64 KiB stripe only;
// these tests first demonstrate the tear on the live read path (the seed
// bug: a multi-stripe read overlapping a storm of whole-buffer writes
// observes a mixed-epoch buffer), then pin the fix: Snapshot/SnapRead is
// bitwise stable and cut-consistent on every transport, whatever the
// concurrent write traffic.

// snapTestStripes sizes the storm segments: enough stripes that a
// multi-stripe sweep is long relative to the scheduler's preemption
// granularity, small enough to keep the storm iteration rate high.
const snapTestStripes = 16

// fillWords fills buf with the 4-byte little-endian pattern k.
func fillWords(buf []byte, k uint32) {
	binary.LittleEndian.PutUint32(buf[:4], k)
	for n := 4; n < len(buf); n *= 2 {
		copy(buf[n:], buf[:n])
	}
}

// uniformWords reports whether buf is one repeated 4-byte pattern,
// returning the first offset where it is not.
func uniformWords(buf []byte) (int, bool) {
	k := binary.LittleEndian.Uint32(buf[:4])
	for off := 4; off < len(buf); off += 4 {
		if binary.LittleEndian.Uint32(buf[off:]) != k {
			return off, false
		}
	}
	return 0, true
}

// stormSegment creates a multi-stripe segment and starts a goroutine
// storming whole-buffer writes of distinguishable patterns through w.
// Returns the handle (attached on r's store view) and a stop function.
func stormWrites(t *testing.T, w Client, h Handle, size int) (stop func()) {
	t.Helper()
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		buf := make([]byte, size)
		for k := uint32(1); ; k++ {
			select {
			case <-done:
				return
			default:
			}
			fillWords(buf, k)
			if err := w.Write(h, 0, buf); err != nil {
				t.Errorf("storm write: %v", err)
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// TestMultiStripeReadTorn demonstrates the live-read tear the snapshot
// tier exists to fix — and documents that Read's contract is unchanged:
// per-stripe atomicity only. A reader sweeping 16 stripes against a storm
// of whole-buffer writes observes a buffer mixing two write epochs. The
// schedule is probabilistic, so the test storms until it catches one tear
// (milliseconds in practice, generously bounded) rather than asserting a
// particular interleaving.
func TestMultiStripeReadTorn(t *testing.T) {
	store := NewStore()
	size := snapTestStripes * chunkBytes
	key, err := store.Create("torn/wg", size)
	if err != nil {
		t.Fatal(err)
	}
	h, err := store.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	stop := stormWrites(t, NewLocalClient(store), h, size)
	defer stop()

	buf := make([]byte, size)
	deadline := time.Now().Add(30 * time.Second)
	for reads := 0; time.Now().Before(deadline); reads++ {
		if err := store.Read(h, 0, buf); err != nil {
			t.Fatal(err)
		}
		if off, ok := uniformWords(buf); !ok {
			t.Logf("tear observed after %d reads: word at %d differs (stripe %d vs 0) — live Read is per-stripe atomic only",
				reads, off, off/chunkBytes)
			return
		}
	}
	t.Fatal("no torn read observed: either the scheduler never preempted mid-sweep (rerun) or Read grew multi-stripe atomicity this suite does not expect")
}

// assertSnapshotStable takes a cut through sc mid-storm and pins the fix:
// the snapshot is uniform (no mixed write epochs — the cut is atomic
// against whole ops) and bitwise stable across repeated reads (COW
// preserves the cut while the storm keeps writing). Returns the pattern
// the cut captured.
func assertSnapshotStable(t *testing.T, sc Snapshotter, h Handle, size int) uint32 {
	t.Helper()
	info, err := sc.Snapshot(h)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != size {
		t.Fatalf("snapshot size %d, want %d", info.Size, size)
	}
	first := make([]byte, size)
	if err := sc.SnapRead(info.ID, 0, first); err != nil {
		t.Fatal(err)
	}
	if off, ok := uniformWords(first); !ok {
		t.Fatalf("snapshot %d torn: word at %d (stripe %d) differs from stripe 0",
			uint64(info.ID), off, off/chunkBytes)
	}
	again := make([]byte, size)
	for i := 0; i < 8; i++ {
		if err := sc.SnapRead(info.ID, 0, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("snapshot %d unstable on read %d: bytes changed under the storm", uint64(info.ID), i)
		}
	}
	// Partial reads serve the same cut.
	part := make([]byte, chunkBytes+8)
	off := chunkBytes / 2
	if err := sc.SnapRead(info.ID, off, part); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first[off:off+len(part)], part) {
		t.Fatalf("snapshot %d partial read disagrees with full read", uint64(info.ID))
	}
	if err := sc.SnapRelease(info.ID); err != nil {
		t.Fatal(err)
	}
	if err := sc.SnapRead(info.ID, 0, part); !errors.Is(err, ErrUnknownSnapshot) {
		t.Fatalf("read of released snapshot: %v, want ErrUnknownSnapshot", err)
	}
	return binary.LittleEndian.Uint32(first[:4])
}

// TestSnapshotStableUnderWriteStorm is the tentpole's core assertion on
// the local store: cuts taken mid-storm are uniform and immutable.
func TestSnapshotStableUnderWriteStorm(t *testing.T) {
	store := NewStore()
	size := snapTestStripes * chunkBytes
	key, err := store.Create("snap/wg", size)
	if err != nil {
		t.Fatal(err)
	}
	h, err := store.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	stop := stormWrites(t, NewLocalClient(store), h, size)
	defer stop()

	lc := NewLocalClient(store)
	var last uint32
	for i := 0; i < 20; i++ {
		k := assertSnapshotStable(t, lc, h, size)
		if k < last {
			t.Fatalf("snapshot %d captured pattern %d after an earlier cut saw %d: cuts went backwards", i, k, last)
		}
		last = k
	}
	if store.SnapCount() != 0 {
		t.Fatalf("%d snapshots leaked", store.SnapCount())
	}
	if got := store.snapc.cowPages.Load(); got == 0 {
		t.Error("storm never forced a COW page: the lazy path was not exercised")
	}
}

// TestSnapshotStableUnderAccumulateStorm covers the paper's actual write
// traffic: Accumulate (Eq. 7) storms into Wg while snapshots serve. Each
// accumulate adds a uniform gradient, so any consistent cut is a uniform
// float32 buffer; a torn cut mixes pre- and post-add stripes.
func TestSnapshotStableUnderAccumulateStorm(t *testing.T) {
	store := NewStore()
	size := snapTestStripes * chunkBytes
	kw, err := store.Create("acc/wg", size)
	if err != nil {
		t.Fatal(err)
	}
	kd, err := store.Create("acc/dw", size)
	if err != nil {
		t.Fatal(err)
	}
	hw, _ := store.Attach(kw)
	hd, _ := store.Attach(kd)
	ones := make([]float32, size/4)
	for i := range ones {
		ones[i] = 1
	}
	if err := store.Write(hd, 0, tensor.Float32Bytes(ones)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := store.Accumulate(hw, hd); err != nil {
				t.Errorf("storm accumulate: %v", err)
				return
			}
		}
	}()
	defer func() { close(done); <-finished }()

	buf := make([]byte, size)
	for i := 0; i < 20; i++ {
		info, err := store.Snapshot(hw)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.SnapRead(info.ID, 0, buf); err != nil {
			t.Fatal(err)
		}
		vals, err := tensor.Float32FromBytes(buf)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range vals {
			if v != vals[0] {
				t.Fatalf("cut %d torn mid-accumulate: wg[%d]=%g, wg[0]=%g", i, j, v, vals[0])
			}
		}
		if err := store.SnapRelease(info.ID); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotTransports runs the storm/cut assertion over TCP. (The
// shm-mapped writer storm has its own test below; it needs the shared
// gate.)
func TestSnapshotTransports(t *testing.T) {
	size := 4 * chunkBytes
	t.Run("tcp", func(t *testing.T) {
		srv := startServer(t)
		c, w := dialT(t, srv), dialT(t, srv)
		key, err := c.Create("snap/wg", size)
		if err != nil {
			t.Fatal(err)
		}
		h, _ := c.Attach(key)
		wh, _ := w.Attach(key)
		stop := stormWrites(t, w, wh, size)
		defer stop()
		for i := 0; i < 5; i++ {
			assertSnapshotStable(t, c, h, size)
		}
	})
}

// TestShmSnapshotMappedWriterStorm extends the regression to the
// shm-mapped write path: a mapped client storms whole-buffer writes into
// the shared stripes (no server involvement per op), while snapshots are
// cut server-side through the control socket. The cut must drain the
// mapped writer through the shared snapshot gate, so it cannot land
// mid-write.
func TestShmSnapshotMappedWriterStorm(t *testing.T) {
	_, path := startShmServer(t)
	w := dialShmT(t, path)
	c := dialShmT(t, path)
	size := 4 * chunkBytes
	key, err := w.Create("snap/wg", size)
	if err != nil {
		t.Fatal(err)
	}
	wh, err := w.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Mapped(wh) {
		t.Skip("segment did not map; mapped-writer storm not exercisable")
	}
	ch, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	stop := stormWrites(t, w, wh, size)
	defer stop()
	for i := 0; i < 5; i++ {
		assertSnapshotStable(t, c, ch, size)
	}
}

// TestSnapReadZeroAlloc pins the serving hot path: once a snapshot's COW
// pages exist, SnapRead on an instrumented store takes no locks on the
// steady path and performs zero heap allocations per op (check.sh tier 2
// runs this by name).
func TestSnapReadZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	store, hg, _ := setupAllocStore(t)
	buf := make([]byte, allocVals*4)
	fillWords(buf, 7)
	if err := store.Write(hg, 0, buf); err != nil {
		t.Fatal(err)
	}
	info, err := store.Snapshot(hg)
	if err != nil {
		t.Fatal(err)
	}
	// Force the COW path: a post-cut write publishes pre-image pages, so
	// the timed loop below reads pages, live bytes, and the boundary.
	fillWords(buf, 8)
	if err := store.Write(hg, 0, buf[:len(buf)/2]); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, allocVals*4)
	if err := store.SnapRead(info.ID, 0, dst); err != nil {
		t.Fatal(err)
	}
	if off, ok := uniformWords(dst); !ok {
		t.Fatalf("snapshot not the cut: differs at %d", off)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := store.SnapRead(info.ID, 0, dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Store.SnapRead allocates %.1f per op, want 0", n)
	}
	if err := store.SnapRelease(info.ID); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSeqlockFallback drives the bounded-retry accounting: the
// counters that check.sh's serve smoke scrapes must exist and move the
// right way under a storm.
func TestSnapshotCounters(t *testing.T) {
	store := NewStore()
	size := snapTestStripes * chunkBytes
	key, _ := store.Create("cnt/wg", size)
	h, _ := store.Attach(key)
	stop := stormWrites(t, NewLocalClient(store), h, size)
	buf := make([]byte, size)
	var reads atomic.Int64
	for i := 0; i < 10; i++ {
		info, err := store.Snapshot(h)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 5; j++ {
			if err := store.SnapRead(info.ID, 0, buf); err != nil {
				t.Fatal(err)
			}
			reads.Add(1)
		}
		store.SnapRelease(info.ID)
	}
	stop()
	if got := store.snapc.taken.Load(); got != 10 {
		t.Errorf("taken = %d, want 10", got)
	}
	if got := store.snapc.live.Load(); got != 0 {
		t.Errorf("live = %d, want 0", got)
	}
	if got := store.snapc.reads.Load(); got != reads.Load() {
		t.Errorf("reads = %d, want %d", got, reads.Load())
	}
}
