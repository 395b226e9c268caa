// Package smb implements the Soft Memory Box: the remote-shared-memory
// framework underneath ShmCaffe (paper Sec. III-B). A memory server owns
// byte segments; clients create a segment under a name to get its SHM key,
// find a peer's segment by name with Lookup (every worker rendezvouses on
// the server, Fig. 2), attach to get an access key (the stand-in for the
// Infiniband rkey), and then issue Read / Write / Accumulate operations.
// Accumulate is the server-side float32 "dst += src" between segments that
// lets SEASGD run without a parameter server (Eq. 7).
//
// Every client implements one Client interface: the in-process
// LocalClient, the frame protocol over TCP, unix sockets or the RDS-like
// datagram transport (StreamClient, SupervisedClient; transport.go), and
// ShmClient, which maps a co-located server's memfd segments and runs the
// Store's own stripe code against them (DESIGN.md §16).
package smb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"shmcaffe/internal/faults"
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

// segment is one shared memory region as this process sees it: a Store's
// heap or exported segment, or a ShmClient's mapping of an exported one.
// The data slice header and the locks table are immutable after Create (or
// the mapping's Attach); the *contents* of data are protected
// per chunkBytes stripe by the corresponding entry of locks (stripe i
// covers bytes [i*chunkBytes, (i+1)*chunkBytes)). An operation touching a
// byte range must hold every overlapped stripe lock, one stripe at a time
// — which makes whole-segment operations atomic per stripe, not per
// segment (see segment.accumulate).
type segment struct {
	key   SHMKey
	name  string
	locks []sync.RWMutex
	data  []byte
	// shm is the memfd backing of an exported or mapped segment
	// (shmseg.go); nil for heap segments. Immutable, like data — data
	// aliases shm's data region when set.
	shm *shmShared
	// version counts the whole operations that mutated a heap segment — what
	// SnapInfo.Version reports. Exported segments count in their shared
	// control page instead, where mapped clients can bump it too.
	version atomic.Uint64

	// gate is the whole-operation fence snapshots cut against
	// (snapshot.go): every mutating op holds it in read mode for its full
	// stripe sweep, Store.Snapshot takes it exclusively while it copies the
	// cut. Uncontended in steady state, so the write path stays wait-free.
	gate sync.RWMutex
	// spare is the cut buffer of the last released snapshot: the next
	// Snapshot copies into it instead of allocating a segment-sized buffer.
	spare atomic.Pointer[[]byte]
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
		key:   key,
		name:  name,
		locks: make([]sync.RWMutex, numChunks(size)),
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
	return seg.loadVersion(), nil
}

// loadVersion returns the segment's version: the shared control-page word
// for an exported segment, where mapped clients bump it too.
func (seg *segment) loadVersion() uint64 {
	if seg.shm != nil {
		return seg.shm.version()
	}
	return seg.version.Load()
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
	x := stripeIO{buf: dst}
	return s.walk(h, off, len(dst), false, 1, &x)
}

// Write copies src into the segment at off — the RDMA Write verb. Like
// Read, the copy is atomic per stripe.
//
//shm:hotpath
func (s *Store) Write(h Handle, off int, src []byte) error {
	x := stripeIO{buf: src}
	return s.walk(h, off, len(src), true, 1, &x)
}

// stripeIO is the far side of one stripe walk: the caller's buffer
// (Store.Read, Store.Write), or the server connection a wire Write body
// arrives on or a bulk reply leaves by (server.go), so wire bytes move
// straight between the socket and the stripes with no staging copy.
type stripeIO struct {
	buf   []byte     // buffered: the bytes to store, or the room to fill
	conn  Conn       // streamed: the connection; buf is unused
	vw    *vecWriter // streamed reply: pending iovecs, the frame header first
	moved int        // bytes moved so far
	fault error      // the transport failure that cut a streamed transfer
}

// move transfers one locked span: into it for a write, out of it for a
// read. A streamed move first re-arms the connection's deadline, so a
// peer that moves no span for streamTimeout loses its connection — and
// with it the locks the span is under.
//
//shm:hotpath
func (x *stripeIO) move(span []byte, write bool) error {
	var err error
	switch {
	case x.conn == nil && write:
		copy(span, x.buf[x.moved:])
	case x.conn == nil:
		copy(x.buf[x.moved:], span)
	case write:
		x.conn.SetReadDeadline(time.Now().Add(streamTimeout))
		err = readFull(x.conn, span)
	default:
		x.conn.SetWriteDeadline(time.Now().Add(streamTimeout))
		x.vw.add(span)
		err = x.vw.writeTo(x.conn)
	}
	if err != nil {
		x.fault = err
		return err
	}
	x.moved += len(span)
	return nil
}

// walk is every Read and Write of the store, buffered or streamed: the
// handle lookup, the segment's stripe walk, then the stats and the latency
// row of a walk that succeeded.
//
//shm:hotpath
func (s *Store) walk(h Handle, off, n int, write bool, group int, x *stripeIO) error {
	seg, err := s.lookupHandle(h)
	if err != nil {
		return err
	}
	ins, t0 := s.startTimer()
	if err := seg.walk(off, n, write, group, x, shmServerLease); err != nil {
		return err
	}
	if write {
		s.stats.writes.Add(1)
		s.stats.bytesWrite.Add(int64(n))
	} else {
		s.stats.reads.Add(1)
		s.stats.bytesRead.Add(int64(n))
	}
	if ins != nil {
		lat := ins.readLatency
		if write {
			lat = ins.writeLatency
		}
		lat.ObserveSeconds(time.Since(t0).Nanoseconds())
	}
	return nil
}

// walk is every Read and Write of a segment, in any process: the
// overflow-safe range check (off and n may come straight off the wire),
// the op gate of a write, the stripe locks in ascending order — shared for
// a read, exclusive for a write — and the version bump. It visits
// [off, off+n) up to group stripes at a time, handing each locked span to x.
//
// A write whose transfer fails part-way (a streamed body cut by its
// connection) has the RDMA WRITE failure semantics: the version is bumped
// and the range's bytes are undefined.
//
//shm:hotpath
func (seg *segment) walk(off, n int, write bool, group int, x *stripeIO, lease uint32) error {
	if size := len(seg.data); off < 0 || n < 0 || off > size || n > size-off {
		verb := "read"
		if write {
			verb = "write"
		}
		return fmt.Errorf("%s [%d,%d) of %d-byte segment %q: %w",
			verb, off, off+n, size, seg.name, ErrOutOfRange)
	}
	if write {
		seg.rlockGate() // snapshot fence: the whole op is one cut-atomic unit
	}
	var err error
	end := off + n
	for lo := off; lo < end && err == nil; {
		first := lo / chunkBytes
		last := min(first+group, (end-1)/chunkBytes+1) // one past
		hi := min(last*chunkBytes, end)
		for ci := first; ci < last; ci++ {
			if write {
				seg.lockStripe(ci, lease, false)
			} else {
				//lint:ignore lockorder stripe locks nest in one order only: a group's stripes by ascending index here, the two segments' stripes of one index by segment key in accumulate and writeAccumulate, so no two holders can cross
				seg.rlockStripe(ci, lease)
			}
		}
		err = x.move(seg.data[lo:hi], write)
		for ci := first; ci < last; ci++ {
			if write {
				seg.unlockStripe(ci, lease)
			} else {
				seg.runlockStripe(ci, lease)
			}
		}
		lo = hi
	}
	if write {
		seg.bumpVersion()
		seg.runlockGate()
	}
	return err
}

// accScratchPool recycles the decode buffers of the non-little-endian /
// misaligned Accumulate fallback; the fast path never touches it.
var accScratchPool = sync.Pool{New: func() any { return new([]float32) }}

// Accumulate performs dst[i] += src[i] over the segments interpreted as
// float32 vectors (segment.accumulate), counting and timing the op.
//
//shm:hotpath
func (s *Store) Accumulate(dst, src Handle) error {
	dseg, sseg, err := s.lookupPair(dst, src)
	if err != nil {
		return err
	}
	ins, t0 := s.startTimer()
	waitNs, err := dseg.accumulate(sseg, shmServerLease, ins != nil)
	if err != nil {
		return err
	}
	s.stats.accumulates.Add(1)
	s.stats.bytesWrite.Add(int64(len(dseg.data)))
	ins.observeAccumulate(t0, waitNs)
	return nil
}

// WriteAccumulate is the fused push of the in-process transport
// (segment.writeAccumulate): the result equals Write(src, 0, data) then
// Accumulate(dst, src), and the counters advance by one Write plus one
// Accumulate.
//
//shm:hotpath
func (s *Store) WriteAccumulate(dst, src Handle, data []byte) error {
	dseg, sseg, err := s.lookupPair(dst, src)
	if err != nil {
		return err
	}
	ins, t0 := s.startTimer()
	waitNs, err := dseg.writeAccumulate(sseg, data, shmServerLease, ins != nil)
	if err != nil {
		return err
	}
	s.stats.writes.Add(1)
	s.stats.accumulates.Add(1)
	// len(data) bytes into src plus len(data) accumulated bytes into dst —
	// the accounting of the Write + Accumulate pair.
	s.stats.bytesWrite.Add(int64(2 * len(data)))
	ins.observeAccumulate(t0, waitNs)
	return nil
}

func (s *Store) lookupPair(dst, src Handle) (*segment, *segment, error) {
	dseg, err := s.lookupHandle(dst)
	if err != nil {
		return nil, nil, err
	}
	sseg, err := s.lookupHandle(src)
	if err != nil {
		return nil, nil, err
	}
	return dseg, sseg, nil
}

// startTimer returns the installed instruments and, when there are any,
// the op's start time.
func (s *Store) startTimer() (*storeInstruments, time.Time) {
	ins := s.inst.Load()
	if ins == nil {
		return nil, time.Time{}
	}
	return ins, time.Now()
}

// observeAccumulate records one Accumulate or fused push's latency and
// stripe wait; a nil ins (uninstrumented store) records nothing.
func (ins *storeInstruments) observeAccumulate(t0 time.Time, waitNs int64) {
	if ins == nil {
		return
	}
	ins.accLatency.ObserveSeconds(time.Since(t0).Nanoseconds())
	ins.stripeWait.ObserveSeconds(waitNs)
}

// accumulate performs seg[i] += src[i] over the segments interpreted as
// float32 vectors, stripe by stripe on zero-copy float32 views of the
// segment bytes (tensor.Float32View): for each chunk it takes seg's stripe
// exclusively and src's stripe shared, runs the add in place, and releases
// — so concurrent workers accumulating into the same global weight segment
// proceed in parallel on different stripes and only serialize when they
// collide on the same 64 KiB. It returns the nanoseconds spent blocked on
// seg's in-process stripe locks when timed.
//
// The paper's no-lost-increments guarantee (Fig. 6 T.A3) holds exactly:
// every element update happens under its stripe's exclusive lock, so
// updates to any given element are linearized and none are dropped — the
// race-stress suite asserts the exact sum. Atomicity is per stripe: a
// concurrent Read may observe some stripes before and some after a given
// Accumulate (the relaxed staleness the SEASGD algorithm already absorbs).
//
// Lock ordering: for each stripe the two segments' locks are taken in
// segment-key order, so crossed accumulates (A: X+=Y, B: Y+=X) cannot
// deadlock, in one process or across several.
//
//shm:hotpath
func (seg *segment) accumulate(src *segment, lease uint32, timed bool) (int64, error) {
	if len(seg.data) != len(src.data) {
		return 0, fmt.Errorf("accumulate %q (%d B) += %q (%d B): %w",
			seg.name, len(seg.data), src.name, len(src.data), ErrSizeMismatch)
	}
	if len(seg.data)%4 != 0 {
		return 0, fmt.Errorf("accumulate %q: %w", seg.name, ErrNotFloatAligned)
	}
	// Snapshot fence on the destination only — the op mutates seg and
	// merely reads src, so a cut of src is unaffected by it. Single gate,
	// no ordering concern.
	seg.rlockGate()
	defer seg.runlockGate()
	var waitNs int64
	for ci := range seg.locks {
		lo, hi := seg.chunkRange(ci)
		if seg.key == src.key {
			// Self-accumulate: one lock, double in place. Decided by key,
			// not pointer: two handles a client mapped separately are two
			// views of one segment and must not take its words twice.
			waitNs += seg.lockStripe(ci, lease, timed)
			err := accumulateChunk(seg.data[lo:hi], seg.data[lo:hi])
			seg.unlockStripe(ci, lease)
			if err != nil {
				return waitNs, err
			}
			continue
		}
		if seg.key < src.key {
			waitNs += seg.lockStripe(ci, lease, timed)
			src.rlockStripe(ci, lease)
		} else {
			src.rlockStripe(ci, lease)
			waitNs += seg.lockStripe(ci, lease, timed)
		}
		err := accumulateChunk(seg.data[lo:hi], src.data[lo:hi])
		src.runlockStripe(ci, lease)
		seg.unlockStripe(ci, lease)
		if err != nil {
			return waitNs, err
		}
	}
	seg.bumpVersion()
	return waitNs, nil
}

// writeAccumulate is the fused push (ΔWx): data lands in src and the same
// values fold into seg (float32-wise) in one sweep, stripe by stripe. data
// must cover the whole src segment, so the result equals a write of data
// into src then seg.accumulate(src), and both versions bump once. Each
// stripe is processed under the exclusive locks of both segments, taken in
// segment-key order like accumulate, so crossed pushes (A: X ⇐ Y, B: Y ⇐ X)
// cannot deadlock and no increment is lost. It returns the nanoseconds
// spent blocked on in-process stripe locks when timed.
//
//shm:hotpath
func (seg *segment) writeAccumulate(src *segment, data []byte, lease uint32, timed bool) (int64, error) {
	if len(seg.data) != len(src.data) || len(data) != len(src.data) {
		return 0, fmt.Errorf("write-accumulate %d bytes: %q (%d B) += %q (%d B): %w",
			len(data), seg.name, len(seg.data), src.name, len(src.data), ErrSizeMismatch)
	}
	if len(data)%4 != 0 {
		return 0, fmt.Errorf("write-accumulate %q: %w", seg.name, ErrNotFloatAligned)
	}
	// Snapshot fence: the push mutates both segments, so it is one
	// cut-atomic unit against snapshots of either. Both gates, like both
	// stripes below, in segment-key order: first, then second.
	self := seg.key == src.key // by key, as in accumulate
	first, second := seg, src
	if src.key < seg.key {
		first, second = src, seg
	}
	first.rlockGate()
	defer first.runlockGate()
	if !self {
		//lint:ignore lockorder the two gates of this class are taken in segment-key order (first, then second), so concurrent pushes cannot cross
		second.rlockGate()
		defer second.runlockGate()
	}
	var waitNs int64
	for ci := range src.locks {
		lo, hi := src.chunkRange(ci)
		var err error
		if self {
			// Self-target: one lock; the write lands and is doubled in place.
			waitNs += seg.lockStripe(ci, lease, timed)
			// Fault-injection hook: a mapped client armed with
			// shm-mid-accumulate dies here, stripe locks held — the
			// scenario the server's dead-lease reap exists for.
			faults.CrashPoint("shm-mid-accumulate")
			copy(seg.data[lo:hi], data[lo:hi])
			err = accumulateChunk(seg.data[lo:hi], seg.data[lo:hi])
			seg.unlockStripe(ci, lease)
		} else {
			waitNs += first.lockStripe(ci, lease, timed)
			waitNs += second.lockStripe(ci, lease, timed)
			faults.CrashPoint("shm-mid-accumulate")
			err = copyAccumulateChunk(seg.data[lo:hi], src.data[lo:hi], data[lo:hi])
			second.unlockStripe(ci, lease)
			first.unlockStripe(ci, lease)
		}
		if err != nil {
			return waitNs, err
		}
	}
	src.bumpVersion()
	if !self {
		seg.bumpVersion()
	}
	return waitNs, nil
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
// the fold is the entire operation for its one caller
// (segment.writeAccumulate, in-process and mapped alike), so skipping the
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
