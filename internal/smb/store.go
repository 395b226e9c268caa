// Package smb implements the Soft Memory Box: the remote-shared-memory
// framework underneath ShmCaffe (paper Sec. III-B). A memory server owns
// byte segments; clients obtain an SHM key at creation time, exchange it
// out of band (the master broadcasts it over MPI, Fig. 2), attach to get an
// access key (the stand-in for the Infiniband rkey), and then issue
// Read / Write / Accumulate operations. Accumulate is the server-side
// float32 "dst += src" between segments that lets SEASGD run without a
// parameter server (Eq. 7).
//
// Two transports are provided: a zero-copy in-process client for
// goroutine-per-worker deployments, and a TCP client/server pair with a
// binary protocol standing in for RDMA verbs.
package smb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"shmcaffe/internal/tensor"
)

// Exported errors; callers match with errors.Is.
var (
	ErrSegmentExists   = errors.New("smb: segment already exists")
	ErrUnknownSegment  = errors.New("smb: unknown segment")
	ErrUnknownHandle   = errors.New("smb: unknown access handle")
	ErrOutOfRange      = errors.New("smb: offset/length out of segment range")
	ErrSizeMismatch    = errors.New("smb: segment sizes incompatible")
	ErrNotFloatAligned = errors.New("smb: segment size not float32-aligned")
)

// SHMKey identifies a segment for attachment; it is the shared-memory
// generation key the master broadcasts to slaves (Fig. 2).
type SHMKey uint64

// Handle is an attached client's access key to one segment — the analogue
// of the RDMA remote key granting direct access.
type Handle uint64

// Stats counts server-side traffic; the Fig. 7 bandwidth experiment and the
// comm-volume assertions read these.
type Stats struct {
	Creates     int64
	Attaches    int64
	Reads       int64
	Writes      int64
	Accumulates int64
	BytesRead   int64
	BytesWrite  int64
	// SeqDuplicates counts sequence-stamped accumulates acknowledged as
	// already-applied duplicates (seq.go). Duplicates do not advance
	// Accumulates, so Accumulates stays exactly the count of distinct
	// logical pushes applied, however many times each was retried.
	SeqDuplicates int64
}

// statCounters is the lock-free internal form of Stats: plain atomic adds
// on the hot path instead of the seed's closure-under-mutex addStat, which
// allocated a closure and serialized every Read/Write/Accumulate behind one
// statMu.
type statCounters struct {
	creates     atomic.Int64
	attaches    atomic.Int64
	reads       atomic.Int64
	writes      atomic.Int64
	accumulates atomic.Int64
	bytesRead   atomic.Int64
	bytesWrite  atomic.Int64
	seqDups     atomic.Int64
}

// chunkBytes is the lock-striping granularity of a segment: each chunk has
// its own RWMutex, so concurrent Accumulates (and Reads/Writes) to
// different chunks of the same segment proceed in parallel. 64 KiB (16 Ki
// float32) is coarse enough that lock traffic is negligible against the
// add loop and fine enough that an 8-worker accumulate into a multi-MB Wg
// rarely collides on a stripe. Must stay a multiple of 8 so the int64
// control slots never straddle a stripe.
const chunkBytes = 64 << 10

// segment is one shared memory region. The data slice header and the locks
// table are immutable after Create; the *contents* of data are protected
// per chunkBytes stripe by the corresponding entry of locks (stripe i
// covers bytes [i*chunkBytes, (i+1)*chunkBytes)). An operation touching a
// byte range must hold every overlapped stripe lock, one stripe at a time
// — which makes whole-segment operations atomic per stripe, not per
// segment (see Accumulate).
type segment struct {
	key   SHMKey
	name  string
	locks []sync.RWMutex
	data  []byte
	// shm is the memfd backing when the segment is exported for
	// cross-process mapping (shmseg.go); nil for heap segments. Immutable
	// after Create, like data — data aliases shm's data region when set.
	shm *shmShared
	// version counts the whole operations that mutated a heap segment — what
	// SnapInfo.Version reports. Exported segments count in their shared
	// control page instead, where mapped clients can bump it too.
	version atomic.Uint64

	// gate is the whole-operation fence snapshots cut against
	// (snapshot.go): every mutating op holds it in read mode for its full
	// stripe sweep, Store.Snapshot takes it exclusively for the brief cut.
	// Uncontended in steady state, so the write path stays wait-free.
	gate sync.RWMutex
	// epochs are the per-stripe seqlock words: a stripe's epoch is odd
	// while a writer holds it exclusively, bumped again (even) on release.
	// Snapshot readers validate lock-free copies of pristine stripes
	// against them.
	epochs []atomic.Uint64
	// snaps lists the live lazy snapshots writers must preserve
	// pre-images for; nil when none (the steady-state load is one pointer
	// check per stripe write).
	snaps atomic.Pointer[[]*snapState]
}

// numChunks returns the stripe count for a segment of size bytes.
func numChunks(size int) int { return (size + chunkBytes - 1) / chunkBytes }

// chunkRange returns the byte range of stripe ci, clamped to the segment.
func (seg *segment) chunkRange(ci int) (lo, hi int) {
	lo = ci * chunkBytes
	hi = lo + chunkBytes
	if hi > len(seg.data) {
		hi = len(seg.data)
	}
	return lo, hi
}

// Store is the server-side segment table. It is safe for concurrent use.
type Store struct {
	mu         sync.Mutex
	nextKey    SHMKey              // guarded by mu
	nextHandle Handle              // guarded by mu
	segments   map[SHMKey]*segment // guarded by mu
	byName     map[string]SHMKey   // guarded by mu
	handles    map[Handle]*segment // guarded by mu

	stats statCounters

	// inst holds the optional latency instrumentation (instrument.go);
	// nil until Instrument is called. Atomic so a scrape endpoint can
	// install it while traffic is in flight.
	inst atomic.Pointer[storeInstruments]

	// seqs backs the at-most-once accumulate dedup (seq.go).
	seqs seqTable

	// shmOn switches Create to memfd-backed segments (shmseg.go); shmc
	// counts the shared-memory transport's control-plane traffic.
	shmOn atomic.Bool
	shmc  shmCounters

	// snapTable maps live snapshot IDs to their state (snapshot.go) as an
	// immutable map behind an atomic pointer: SnapRead resolves with one
	// Load and a typed map lookup — no lock, no interface boxing, no
	// allocation on the serving hot path. snapMu serializes the (rare)
	// copy-on-write table swaps; snapc carries the snapshot accounting.
	snapTable atomic.Pointer[map[SnapID]*snapState]
	snapMu    sync.Mutex
	snapc     snapCounters
}

// NewStore returns an empty segment store.
func NewStore() *Store {
	return &Store{
		segments: make(map[SHMKey]*segment),
		byName:   make(map[string]SHMKey),
		handles:  make(map[Handle]*segment),
	}
}

// Create allocates a zero-filled segment of size bytes under a unique name
// and returns its SHM key.
func (s *Store) Create(name string, size int) (SHMKey, error) {
	if size <= 0 {
		return 0, fmt.Errorf("smb: create %q with size %d", name, size)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byName[name]; ok {
		return 0, fmt.Errorf("create %q: %w", name, ErrSegmentExists)
	}
	s.nextKey++
	key := s.nextKey
	seg := &segment{
		key:    key,
		name:   name,
		locks:  make([]sync.RWMutex, numChunks(size)),
		epochs: make([]atomic.Uint64, numChunks(size)),
	}
	if s.shmOn.Load() {
		sh, err := newShmShared(size)
		if err != nil {
			// Heap fallback: the segment still works over every wire verb,
			// it just cannot be mapped (opShmMap reports as much).
			s.shmc.allocFails.Add(1)
		} else {
			seg.shm = sh
			seg.data = sh.dat
		}
	}
	if seg.data == nil {
		seg.data = make([]byte, size)
	}
	s.segments[key] = seg
	s.byName[name] = key
	s.stats.creates.Add(1)
	return key, nil
}

// Lookup returns the SHM key of a named segment.
func (s *Store) Lookup(name string) (SHMKey, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key, ok := s.byName[name]
	if !ok {
		return 0, fmt.Errorf("lookup %q: %w", name, ErrUnknownSegment)
	}
	return key, nil
}

// Attach grants access to the segment identified by key, returning an
// access handle.
func (s *Store) Attach(key SHMKey) (Handle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seg, ok := s.segments[key]
	if !ok {
		return 0, fmt.Errorf("attach key %d: %w", key, ErrUnknownSegment)
	}
	s.nextHandle++
	h := s.nextHandle
	s.handles[h] = seg
	s.stats.attaches.Add(1)
	return h, nil
}

// Detach revokes an access handle.
func (s *Store) Detach(h Handle) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.handles[h]; !ok {
		return fmt.Errorf("detach handle %d: %w", h, ErrUnknownHandle)
	}
	delete(s.handles, h)
	return nil
}

// Free destroys a segment and invalidates all handles to it.
func (s *Store) Free(key SHMKey) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	seg, ok := s.segments[key]
	if !ok {
		return fmt.Errorf("free key %d: %w", key, ErrUnknownSegment)
	}
	delete(s.segments, key)
	delete(s.byName, seg.name)
	for h, hs := range s.handles {
		if hs == seg {
			delete(s.handles, h)
		}
	}
	// A freed memfd segment keeps its mapping and fd until process exit:
	// in-flight handlers may still touch seg.data, and remote mappings hold
	// their own fd references anyway. Segments live for the job in every
	// caller today, so this leaks only on Free-heavy synthetic workloads.
	return nil
}

func (s *Store) lookupHandle(h Handle) (*segment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seg, ok := s.handles[h]
	if !ok {
		return nil, fmt.Errorf("handle %d: %w", h, ErrUnknownHandle)
	}
	return seg, nil
}

// bumpVersion records one more whole mutating operation on the segment.
//
//shm:hotpath
func (seg *segment) bumpVersion() {
	if seg.shm != nil {
		seg.shm.bumpVersion()
		return
	}
	seg.version.Add(1)
}

// Version returns the update version of the segment behind h: 0 until its
// first Write or Accumulate, one more per whole mutating operation since.
func (s *Store) Version(h Handle) (uint64, error) {
	seg, err := s.lookupHandle(h)
	if err != nil {
		return 0, err
	}
	if seg.shm != nil {
		return seg.shm.version(), nil
	}
	return seg.version.Load(), nil
}

// Read copies len(dst) bytes from the segment at off into dst — the RDMA
// Read verb. The copy is atomic per chunkBytes stripe: a Read overlapping
// a concurrent Write or Accumulate sees each stripe either before or after
// the update, which is exactly the relaxed visibility the asynchronous
// SEASGD read of Wg tolerates (paper Eq. 6: workers train on slightly
// stale weights by design).
//
//shm:hotpath
func (s *Store) Read(h Handle, off int, dst []byte) error {
	seg, err := s.lookupHandle(h)
	if err != nil {
		return err
	}
	if off < 0 || off+len(dst) > len(seg.data) {
		return fmt.Errorf("read [%d,%d) of %d-byte segment %q: %w",
			off, off+len(dst), len(seg.data), seg.name, ErrOutOfRange)
	}
	ins := s.inst.Load()
	var t0 time.Time
	if ins != nil {
		t0 = time.Now()
	}
	for covered := 0; covered < len(dst); {
		start := off + covered
		ci := start / chunkBytes
		_, hi := seg.chunkRange(ci)
		if end := off + len(dst); hi > end {
			hi = end
		}
		seg.rlockStripe(ci)
		copy(dst[covered:covered+(hi-start)], seg.data[start:hi])
		seg.runlockStripe(ci)
		covered += hi - start
	}
	s.stats.reads.Add(1)
	s.stats.bytesRead.Add(int64(len(dst)))
	if ins != nil {
		ins.readLatency.ObserveSeconds(time.Since(t0).Nanoseconds())
	}
	return nil
}

// Write copies src into the segment at off — the RDMA Write verb. Like
// Read, the copy is atomic per stripe.
//
//shm:hotpath
func (s *Store) Write(h Handle, off int, src []byte) error {
	seg, err := s.lookupHandle(h)
	if err != nil {
		return err
	}
	if off < 0 || off+len(src) > len(seg.data) {
		return fmt.Errorf("write [%d,%d) of %d-byte segment %q: %w",
			off, off+len(src), len(seg.data), seg.name, ErrOutOfRange)
	}
	ins := s.inst.Load()
	var t0 time.Time
	if ins != nil {
		t0 = time.Now()
	}
	seg.gate.RLock() // snapshot fence: the whole op is one cut-atomic unit
	for covered := 0; covered < len(src); {
		start := off + covered
		ci := start / chunkBytes
		_, hi := seg.chunkRange(ci)
		if end := off + len(src); hi > end {
			hi = end
		}
		seg.lockStripe(ci, false)
		copy(seg.data[start:hi], src[covered:covered+(hi-start)])
		seg.unlockStripe(ci)
		covered += hi - start
	}
	seg.bumpVersion()
	seg.gate.RUnlock()
	s.stats.writes.Add(1)
	s.stats.bytesWrite.Add(int64(len(src)))
	if ins != nil {
		ins.writeLatency.ObserveSeconds(time.Since(t0).Nanoseconds())
	}
	return nil
}

// accScratchPool recycles the decode buffers of the non-little-endian /
// misaligned Accumulate fallback; the fast path never touches it.
var accScratchPool = sync.Pool{New: func() any { return new([]float32) }}

// Accumulate performs dst[i] += src[i] over the segments interpreted as
// float32 vectors.
//
// The seed serialized every Accumulate behind one global accMu and
// decoded/re-encoded the full segment per call. This version works
// stripe-by-stripe on zero-copy float32 views of the segment bytes
// (tensor.Float32View): for each chunk it takes the destination stripe's
// write lock and the source stripe's read lock, runs the add in place, and
// releases — so concurrent workers accumulating into the same global
// weight segment proceed in parallel on different stripes and only
// serialize when they collide on the same 64 KiB.
//
// The paper's no-lost-increments guarantee (Fig. 6 T.A3) still holds
// exactly: every element update happens under its stripe's exclusive lock,
// so updates to any given element are linearized and none are dropped —
// the race-stress suite asserts the exact sum. What changes is atomicity
// granularity: a concurrent Read may observe some stripes before and some
// after a given Accumulate (same relaxed staleness the SEASGD algorithm
// already absorbs).
//
// Lock ordering: for each stripe the two locks are taken in segment-key
// order, so crossed accumulates (A: X+=Y, B: Y+=X) cannot deadlock.
//
//shm:hotpath
func (s *Store) Accumulate(dst, src Handle) error {
	dseg, err := s.lookupHandle(dst)
	if err != nil {
		return err
	}
	sseg, err := s.lookupHandle(src)
	if err != nil {
		return err
	}
	if len(dseg.data) != len(sseg.data) {
		return fmt.Errorf("accumulate %q (%d B) += %q (%d B): %w",
			dseg.name, len(dseg.data), sseg.name, len(sseg.data), ErrSizeMismatch)
	}
	if len(dseg.data)%4 != 0 {
		return fmt.Errorf("accumulate %q: %w", dseg.name, ErrNotFloatAligned)
	}
	ins := s.inst.Load()
	timed := ins != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	var waitNs int64

	// Snapshot fence on the destination only — the op mutates dst and
	// merely reads src, so a cut of src is unaffected by it. Single gate,
	// no ordering concern.
	dseg.gate.RLock()
	defer dseg.gate.RUnlock()
	for ci := range dseg.locks {
		lo, hi := dseg.chunkRange(ci)
		if dseg == sseg {
			// Self-accumulate: one lock, double in place.
			waitNs += dseg.lockStripe(ci, timed)
			if err := accumulateChunk(dseg.data[lo:hi], dseg.data[lo:hi]); err != nil {
				dseg.unlockStripe(ci)
				return err
			}
			dseg.unlockStripe(ci)
			continue
		}
		if dseg.key < sseg.key {
			waitNs += dseg.lockStripe(ci, timed)
			//lint:ignore lockorder second stripe of the same class is taken in segment-key order (dseg.key < sseg.key here, the mirror branch below), so concurrent pairs cannot cross
			sseg.rlockStripe(ci)
		} else {
			sseg.rlockStripe(ci)
			waitNs += dseg.lockStripe(ci, timed)
		}
		err := accumulateChunk(dseg.data[lo:hi], sseg.data[lo:hi])
		sseg.runlockStripe(ci)
		dseg.unlockStripe(ci)
		if err != nil {
			return err
		}
	}
	dseg.bumpVersion()
	s.stats.accumulates.Add(1)
	s.stats.bytesWrite.Add(int64(len(dseg.data)))
	if timed {
		ins.accLatency.ObserveSeconds(time.Since(t0).Nanoseconds())
		ins.stripeWait.ObserveSeconds(waitNs)
	}
	return nil
}

// WriteAccumulate is the fused push of the in-process transport: data
// lands in src and the same values fold into dst (float32-wise) in one
// sweep, stripe by stripe. data must cover the whole src segment, so the
// result equals Write(src, 0, data) then Accumulate(dst, src): both
// versions bump once and the counters advance by one Write plus one
// Accumulate. Each stripe is processed under the exclusive locks of both
// segments, taken in segment-key order like Accumulate, so crossed pushes
// (A: X ⇐ Y, B: Y ⇐ X) cannot deadlock and no increment is lost.
//
//shm:hotpath
func (s *Store) WriteAccumulate(dst, src Handle, data []byte) error {
	dseg, err := s.lookupHandle(dst)
	if err != nil {
		return err
	}
	sseg, err := s.lookupHandle(src)
	if err != nil {
		return err
	}
	if len(dseg.data) != len(sseg.data) || len(data) != len(sseg.data) {
		return fmt.Errorf("write-accumulate %d bytes: %q (%d B) += %q (%d B): %w",
			len(data), dseg.name, len(dseg.data), sseg.name, len(sseg.data), ErrSizeMismatch)
	}
	if len(data)%4 != 0 {
		return fmt.Errorf("write-accumulate %q: %w", dseg.name, ErrNotFloatAligned)
	}
	ins := s.inst.Load()
	timed := ins != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	var waitNs int64

	// Snapshot fence: the push mutates both segments, so it is one
	// cut-atomic unit against snapshots of either. Both gates in
	// segment-key order — the same discipline as the stripe locks.
	if dseg == sseg {
		dseg.gate.RLock()
		defer dseg.gate.RUnlock()
	} else if dseg.key < sseg.key {
		//lint:ignore lockorder the two gates of this class are taken in segment-key order (this branch and its mirror below), so concurrent pushes cannot cross
		dseg.gate.RLock()
		defer dseg.gate.RUnlock()
		sseg.gate.RLock()
		defer sseg.gate.RUnlock()
	} else {
		sseg.gate.RLock()
		defer sseg.gate.RUnlock()
		dseg.gate.RLock()
		defer dseg.gate.RUnlock()
	}
	for ci := range sseg.locks {
		lo, hi := sseg.chunkRange(ci)
		if dseg == sseg {
			// Self-target: one lock; the write lands and is doubled in place.
			waitNs += dseg.lockStripe(ci, timed)
			copy(sseg.data[lo:hi], data[lo:hi])
			err = accumulateChunk(dseg.data[lo:hi], dseg.data[lo:hi])
			dseg.unlockStripe(ci)
		} else {
			if dseg.key < sseg.key {
				waitNs += dseg.lockStripe(ci, timed)
				//lint:ignore lockorder second stripe of the same class is taken in segment-key order (dseg.key < sseg.key here, the mirror branch below), so concurrent pairs cannot cross
				waitNs += sseg.lockStripe(ci, timed)
			} else {
				waitNs += sseg.lockStripe(ci, timed)
				waitNs += dseg.lockStripe(ci, timed)
			}
			err = copyAccumulateChunk(dseg.data[lo:hi], sseg.data[lo:hi], data[lo:hi])
			sseg.unlockStripe(ci)
			dseg.unlockStripe(ci)
		}
		if err != nil {
			return err
		}
	}
	sseg.bumpVersion()
	if dseg != sseg {
		dseg.bumpVersion()
	}
	s.stats.writes.Add(1)
	s.stats.accumulates.Add(1)
	// len(data) bytes into src plus len(data) accumulated bytes into dst —
	// the accounting of the Write + Accumulate pair.
	s.stats.bytesWrite.Add(int64(2 * len(data)))
	if timed {
		ins.accLatency.ObserveSeconds(time.Since(t0).Nanoseconds())
		ins.stripeWait.ObserveSeconds(waitNs)
	}
	return nil
}

// accumulateChunk adds src's float32 contents into dst in place. On
// little-endian hosts both sides are zero-copy aliases of the segment
// bytes; otherwise it decodes through a pooled scratch. dst and src may
// alias (the self-accumulate case).
func accumulateChunk(dst, src []byte) error {
	dv, dok := tensor.Float32View(dst)
	sv, sok := tensor.Float32View(src)
	if dok && sok {
		tensor.AxpySlice(1, sv, dv)
		return nil
	}
	// Fallback: decode both sides into one pooled scratch, add, re-encode.
	n := len(dst) / 4
	p := accScratchPool.Get().(*[]float32)
	if cap(*p) < 2*n {
		*p = make([]float32, 2*n)
	}
	scratch := (*p)[:2*n]
	defer accScratchPool.Put(p)
	dvals, svals := scratch[:n], scratch[n:]
	if err := tensor.DecodeFloat32(dst, dvals); err != nil {
		return fmt.Errorf("accumulate decode: %w", err)
	}
	if err := tensor.DecodeFloat32(src, svals); err != nil {
		return fmt.Errorf("accumulate decode: %w", err)
	}
	tensor.AxpySlice(1, svals, dvals)
	if _, err := tensor.EncodeFloat32(dvals, dst); err != nil {
		return fmt.Errorf("accumulate encode: %w", err)
	}
	return nil
}

// copyAccumulateChunk applies the fused WRITE+ACCUMULATE body to one
// stripe: data lands in src (the WRITE half) and folds into dst (the
// ACCUMULATE half) in a single sweep, without the separate copy pass
// re-reading src. On the SIMD backend the src stores are non-temporal —
// the fold is the entire operation for both callers (Store.WriteAccumulate
// and the mapped ShmClient.WriteAccumulate), so skipping the
// read-for-ownership stream a cached store would add is the right trade.
// Falls back to copy + accumulateChunk when any buffer is not
// float32-viewable (misaligned or big-endian). dst and src must not alias
// each other or data — callers route the self-target case through the
// copy + in-place-double path instead.
//
//shm:hotpath
func copyAccumulateChunk(dst, src, data []byte) error {
	dv, dok := tensor.Float32View(dst)
	sv, sok := tensor.Float32View(src)
	xv, xok := tensor.Float32View(data)
	if dok && sok && xok {
		tensor.FusedCopyAdd(xv, sv, dv)
		return nil
	}
	copy(src, data)
	return accumulateChunk(dst, src)
}

// Stats returns a snapshot of the traffic counters. Counters are updated
// with independent atomics, so the snapshot is per-counter consistent (a
// torn multi-counter view is possible mid-traffic, exact once quiescent).
func (s *Store) Stats() Stats {
	return Stats{
		Creates:       s.stats.creates.Load(),
		Attaches:      s.stats.attaches.Load(),
		Reads:         s.stats.reads.Load(),
		Writes:        s.stats.writes.Load(),
		Accumulates:   s.stats.accumulates.Load(),
		BytesRead:     s.stats.bytesRead.Load(),
		BytesWrite:    s.stats.bytesWrite.Load(),
		SeqDuplicates: s.stats.seqDups.Load(),
	}
}

// ResetStats zeroes the traffic counters.
func (s *Store) ResetStats() {
	s.stats.creates.Store(0)
	s.stats.attaches.Store(0)
	s.stats.reads.Store(0)
	s.stats.writes.Store(0)
	s.stats.accumulates.Store(0)
	s.stats.bytesRead.Store(0)
	s.stats.bytesWrite.Store(0)
	s.stats.seqDups.Store(0)
}

// SegmentCount returns the number of live segments (the /healthz liveness
// signal and the smb_segments gauge).
func (s *Store) SegmentCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segments)
}
