package smb

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"
	"unsafe"
)

// Cross-process shared-memory segments: the zero-copy transport's data
// plane (DESIGN.md §16). When Store.EnableShm is on, Create backs each new
// segment with a memfd instead of a heap slice. The file holds a control
// region followed by the data bytes; co-located clients receive the fd over
// a unix-domain control socket (SCM_RIGHTS, shmctl.go), map the whole file,
// and then run Read/Write/Accumulate directly against the mapped stripes —
// no serialization and no syscalls on the data path, which is the paper's
// one-sided SMB semantics taken literally for the co-located case.
//
// Control region layout (little-endian, page-rounded):
//
//	off  0  u64  magic ("SHMCAFE1")
//	off  8  u32  layout version
//	off 12  u32  stripe count
//	off 16  u64  data size in bytes
//	off 24  u64  segment version (whole mutating ops applied, by any process)
//	off 32  u64  accumulates applied through mappings
//	off 40  u64  bytes accumulated through mappings
//	off 48  u64  writes applied through mappings
//	off 56  u64  reads served through mappings
//	off 64  u32  reserved
//	off 72  u32  snapshot gate: mapped clients hold it in read mode for
//	             each whole mutating op, the server takes it exclusively
//	             to cut a consistent snapshot (layout v3; snapshot.go)
//	off 128 [stripes] × { u32 lock word, u32 reserved }
//
// The per-stripe lock words mirror the server's 64 KiB stripe locks into
// memory both sides can see: the server takes its in-process stripe lock
// first and then the shared word (lease 1); clients take only the shared
// word (lease ≥ 2, one lease per control connection). A lock word is
// owner-lease | contended-bit, futex-waited when contended, and the server
// reaps every word still holding a dead client's lease when that client's
// control connection dies — crash-safety for locks held mid-accumulate.

// ErrShmUnsupported reports that the cross-process shared-memory transport
// is not available: non-linux, a noshm build, or an unsupported
// architecture. Callers fall back to the TCP transport.
var ErrShmUnsupported = errors.New("smb: shared-memory transport unsupported on this platform/build")

// errFDTransport reports an fd-passing attempt over a transport without
// ancillary-data support (TCP, pipes); opShmMap then fails cleanly and the
// client keeps using the wire verbs for that segment.
var errFDTransport = errors.New("smb: transport cannot carry file descriptors")

const (
	shmMagic uint64 = 0x31454641434d4853 // "SHMCAFE1" little-endian
	// v3 added the snapshot gate word at offset 72. The version is
	// validated exactly on map, so a v2 client refuses a v3 segment (and
	// vice versa) and falls back to the wire verbs — the same clean
	// degradation as a non-shm server.
	shmLayoutVersion uint32 = 3

	shmHdrBytes   = 128
	shmLockStride = 8

	shmOffMagic       = 0
	shmOffLayout      = 8
	shmOffStripes     = 12
	shmOffSize        = 16
	shmOffVersion     = 24
	shmOffAccumulates = 32
	shmOffBytesAcc    = 40
	shmOffWrites      = 48
	shmOffReads       = 56
	// shmOffSnapGate is the cross-process snapshot gate (snapshot.go): a
	// reader-count word mapped clients hold in read mode around each whole
	// mutating op, write-locked by the serving process to drain them before
	// copying a consistent cut. It sits in the second cache line, off the
	// op counters every mapped verb bumps.
	shmOffSnapGate = 72
)

// Snapshot-gate word layout: low 30 bits count mapped ops in flight,
// shmSnapGatePending announces a cut (blocking new ops so a storm cannot
// starve the drain), shmSnapGateWriter marks the cut in progress.
const (
	shmSnapGateWriter  uint32 = 1 << 31
	shmSnapGatePending uint32 = 1 << 30
	shmSnapGateReaders uint32 = shmSnapGatePending - 1
)

// shmSnapDrainNs bounds how long a cut waits for mapped in-flight ops to
// drain. Live ops hold the gate for one stripe sweep (microseconds to low
// milliseconds), so a drain that needs the full second means a mapped
// client died mid-op; its orphaned hold cannot be attributed to a lease
// (the count is anonymous by design — one word, many readers), so the cut
// degrades to per-stripe atomicity instead of blocking forever.
const shmSnapDrainNs = int64(1_000_000_000)

// shmLockContended marks a lock word with at least one futex waiter; the
// low 31 bits carry the owner's lease.
const shmLockContended uint32 = 1 << 31

// shmServerLease is the lock-word lease of the serving process itself;
// client leases start at 2 (one per control connection) so a reap can
// name exactly whose words to clear.
const shmServerLease uint32 = 1

// shmLockSpins bounds the CAS spin before a contended acquire parks on the
// futex; stripes are held for one 64 KiB copy+add, so a short spin wins
// most races without burning a syscall.
const shmLockSpins = 128

// shmLockWaitNs bounds one futex sleep on a stripe lock. A bounded wait is
// the liveness backstop: if a reap races a wake (the dead peer's word is
// cleared between our read and our sleep), the waiter re-checks within 10ms
// instead of sleeping forever.
const shmLockWaitNs = int64(10_000_000)

// ShmSupported reports whether this build and platform can serve/map
// memfd-backed segments (linux amd64/arm64 without the noshm tag).
func ShmSupported() bool { return shmBuildSupported }

// shmShared is one memfd-backed segment: the mapping, its regions, and the
// fd kept open for the segment's lifetime so it can be passed to clients.
// All fields are immutable after construction; the *contents* of ctl/dat
// carry the cross-process state.
type shmShared struct {
	m        []byte // whole mapping: [ctl pages][data]
	dat      []byte // data region, aliased by segment.data in the server
	fd       int
	ctlBytes int
	stripes  int
}

func pageRound(n int) int {
	p := os.Getpagesize()
	return (n + p - 1) / p * p
}

// newShmShared creates a memfd-backed segment of size data bytes and
// initializes the control header.
func newShmShared(size int) (*shmShared, error) {
	stripes := numChunks(size)
	ctlBytes := pageRound(shmHdrBytes + stripes*shmLockStride)
	fd, m, err := shmCreateOS(ctlBytes + size)
	if err != nil {
		return nil, err
	}
	sh := &shmShared{m: m, dat: m[ctlBytes : ctlBytes+size], fd: fd, ctlBytes: ctlBytes, stripes: stripes}
	sh.word64(shmOffMagic).Store(shmMagic)
	sh.word32(shmOffLayout).Store(shmLayoutVersion)
	sh.word32(shmOffStripes).Store(uint32(stripes))
	sh.word64(shmOffSize).Store(uint64(size))
	return sh, nil
}

// mapShmShared maps a received fd as a client-side view of a segment and
// validates the control header against the geometry the server announced.
func mapShmShared(fd, ctlBytes, size int) (*shmShared, error) {
	m, err := shmMapOS(fd, ctlBytes+size)
	if err != nil {
		return nil, err
	}
	sh := &shmShared{m: m, dat: m[ctlBytes : ctlBytes+size], fd: fd, ctlBytes: ctlBytes, stripes: numChunks(size)}
	if sh.word64(shmOffMagic).Load() != shmMagic ||
		sh.word32(shmOffLayout).Load() != shmLayoutVersion ||
		int(sh.word32(shmOffStripes).Load()) != sh.stripes ||
		sh.word64(shmOffSize).Load() != uint64(size) {
		sh.close()
		return nil, fmt.Errorf("smb: mapped segment control header mismatch")
	}
	return sh, nil
}

// close unmaps and drops the fd. Server-side segments keep theirs for the
// process lifetime (see Store.Free); client mappings close on unmap.
func (sh *shmShared) close() { shmCloseOS(sh.fd, sh.m) }

// word32/word64 view a control-region offset as an atomic. The mapping is
// page-aligned and every header offset is naturally aligned, so the casts
// are valid on both supported architectures.
func (sh *shmShared) word32(off int) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Pointer(&sh.m[off]))
}

func (sh *shmShared) word64(off int) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&sh.m[off]))
}

func (sh *shmShared) lockWord(ci int) *atomic.Uint32 {
	return sh.word32(shmHdrBytes + ci*shmLockStride)
}

// lockStripe acquires stripe ci's shared lock word for lease. Fast path is
// one CAS; contention spins briefly, then marks the word contended and
// parks on the futex. A waiter that slept re-acquires with the contended
// bit pre-set — there may be other sleepers, and unlock must wake them.
//
//shm:hotpath
func (sh *shmShared) lockStripe(ci int, lease uint32) {
	w := sh.lockWord(ci)
	if w.CompareAndSwap(0, lease) {
		return
	}
	own := lease
	for spins := 0; ; {
		if w.CompareAndSwap(0, own) {
			return
		}
		if spins < shmLockSpins {
			spins++
			continue
		}
		cur := w.Load()
		if cur == 0 {
			continue
		}
		if cur&shmLockContended == 0 {
			if !w.CompareAndSwap(cur, cur|shmLockContended) {
				continue
			}
			cur |= shmLockContended
		}
		futexWait(w, cur, shmLockWaitNs)
		own = lease | shmLockContended
		spins = 0
	}
}

// unlockStripe releases stripe ci's shared lock word, waking futex waiters
// when the word was marked contended. The release is a lease-checked CAS,
// not a blind swap: if the holder's control connection died and the server
// already reaped (and someone else re-acquired) the word, an unconditional
// store here would release a lock we no longer own.
//
//shm:hotpath
func (sh *shmShared) unlockStripe(ci int, lease uint32) {
	w := sh.lockWord(ci)
	if w.CompareAndSwap(lease, 0) {
		return
	}
	if w.CompareAndSwap(lease|shmLockContended, 0) {
		futexWakeAll(w)
		return
	}
	// The word no longer carries our lease — it was reaped out from under
	// us. Whoever owns it now is responsible for it; touching it would
	// corrupt their critical section.
}

// reapLease force-releases every stripe lock word still held by lease — the
// crash-recovery path for a client that died mid-accumulate. Returns how
// many words were cleared. The reaped stripes may hold a half-applied
// accumulate — a partial gradient, which SEASGD absorbs (DESIGN.md §16).
func (sh *shmShared) reapLease(lease uint32) int {
	n := 0
	for ci := 0; ci < sh.stripes; ci++ {
		w := sh.lockWord(ci)
		for {
			cur := w.Load()
			if cur&^shmLockContended != lease {
				break
			}
			if w.CompareAndSwap(cur, 0) {
				futexWakeAll(w)
				n++
				break
			}
		}
	}
	return n
}

// version returns the shared version word — authoritative for exported
// segments, where bumps can originate in any mapping process.
func (sh *shmShared) version() uint64 { return sh.word64(shmOffVersion).Load() }

// bumpVersion advances the shared version: one atomic add, no syscall —
// the mapped data path stays pure user-space stores.
//
//shm:hotpath
func (sh *shmShared) bumpVersion() { sh.word64(shmOffVersion).Add(1) }

// addOp advances one of the shared op counters (mapped-path traffic
// accounting, exported by Store.Instrument with transport="shm").
//
//shm:hotpath
func (sh *shmShared) addOp(off int, n uint64) { sh.word64(off).Add(n) }

// snapGateRLock registers one mapped mutating op in flight. Fast path is
// one CAS; while a cut is pending or in progress the op parks until the
// gate reopens. Held for the whole op (all stripes plus the version
// bump), paired with snapGateRUnlock.
//
//shm:hotpath
func (sh *shmShared) snapGateRLock() {
	w := sh.word32(shmOffSnapGate)
	for spins := 0; ; {
		cur := w.Load()
		if cur&(shmSnapGateWriter|shmSnapGatePending) == 0 {
			if w.CompareAndSwap(cur, cur+1) {
				return
			}
			continue
		}
		if spins < shmLockSpins {
			spins++
			continue
		}
		futexWait(w, cur, shmLockWaitNs)
		spins = 0
	}
}

// snapGateRUnlock deregisters a mapped op; the last op out wakes a cut
// parked on the drain.
//
//shm:hotpath
func (sh *shmShared) snapGateRUnlock() {
	w := sh.word32(shmOffSnapGate)
	if cur := w.Add(^uint32(0)); cur&shmSnapGateReaders == 0 && cur != 0 {
		futexWakeAll(w)
	}
}

// snapGateLock announces a cut and drains mapped in-flight ops. Only the
// serving process calls it, serialized per segment by the in-process op
// gate, so writer-vs-writer contention can only be a stale bit left by a
// crashed server incarnation — waited out like any lock word. Returns
// false when the drain timed out (an orphaned hold, see shmSnapDrainNs);
// the pending bit is cleared and mapped traffic resumes, and the caller
// must NOT call snapGateUnlock.
func (sh *shmShared) snapGateLock() bool {
	w := sh.word32(shmOffSnapGate)
	for {
		cur := w.Load()
		if cur&(shmSnapGateWriter|shmSnapGatePending) != 0 {
			futexWait(w, cur, shmLockWaitNs)
			continue
		}
		if w.CompareAndSwap(cur, cur|shmSnapGatePending) {
			break
		}
	}
	// With pending set no new reader can enter, so the count is strictly
	// draining from here.
	t0 := time.Now()
	for {
		cur := w.Load()
		if cur&shmSnapGateReaders == 0 {
			if w.CompareAndSwap(cur, shmSnapGateWriter) {
				return true
			}
			continue
		}
		if time.Since(t0).Nanoseconds() > shmSnapDrainNs {
			for {
				cur = w.Load()
				if w.CompareAndSwap(cur, cur&^shmSnapGatePending) {
					break
				}
			}
			futexWakeAll(w)
			return false
		}
		futexWait(w, cur, shmLockWaitNs)
	}
}

// snapGateUnlock reopens the gate after a successful snapGateLock.
func (sh *shmShared) snapGateUnlock() {
	w := sh.word32(shmOffSnapGate)
	w.Store(0) // readers cannot have entered while the writer bit was set
	futexWakeAll(w)
}

// Dual stripe locking: the server wraps every stripe access of an exported
// segment in both its in-process lock and the shared word (always local
// first, shared second; released shared first). In-process readers of an
// exported segment serialize on the shared word — the price of giving
// mapped clients real mutual exclusion against the server's own kernels.

func (seg *segment) lockStripe(ci int, timed bool) int64 {
	w := lockWait(&seg.locks[ci], timed)
	if seg.shm != nil {
		seg.shm.lockStripe(ci, shmServerLease)
	}
	// Snapshot hooks (snapshot.go): preserve the stripe's pre-image for
	// any live lazy snapshot, then flag the stripe unstable — the COW page
	// must be published before the epoch goes odd so a seqlock reader that
	// sees the disturbance is guaranteed to find it.
	if sl := seg.snaps.Load(); sl != nil {
		seg.cowStripe(ci, *sl)
	}
	seg.epochs[ci].Add(1)
	return w
}

func (seg *segment) unlockStripe(ci int) {
	seg.epochs[ci].Add(1) // even again: stripe stable
	if seg.shm != nil {
		seg.shm.unlockStripe(ci, shmServerLease)
	}
	seg.locks[ci].Unlock()
}

func (seg *segment) rlockStripe(ci int) {
	seg.locks[ci].RLock()
	if seg.shm != nil {
		seg.shm.lockStripe(ci, shmServerLease)
	}
}

func (seg *segment) runlockStripe(ci int) {
	if seg.shm != nil {
		seg.shm.unlockStripe(ci, shmServerLease)
	}
	seg.locks[ci].RUnlock()
}

// shmCounters are the Store's always-on shared-memory transport counters.
type shmCounters struct {
	fdPassed    atomic.Int64
	mapBytes    atomic.Int64
	leases      atomic.Int64
	reapedLocks atomic.Int64
	reaps       atomic.Int64
	allocFails  atomic.Int64
}

// ShmStats is the snapshot form of the store's shared-memory counters.
type ShmStats struct {
	FDPassed    int64 // segment fds passed to mapping clients
	MapBytes    int64 // bytes of segment+control currently handed out to mappings
	Leases      int64 // control-connection leases granted
	ReapedLocks int64 // stripe lock words force-released after a peer died
	Reaps       int64 // dead-lease reap sweeps that cleared at least one word
	AllocFails  int64 // memfd allocations that fell back to heap segments
	Exported    int   // live memfd-backed segments
}

// EnableShm switches Create to memfd-backed segments so they can be
// exported to co-located clients. Existing heap segments stay heap-backed
// (they are not mappable; opShmMap on them fails and clients use the wire
// verbs). Returns ErrShmUnsupported where the build has the transport
// compiled out.
func (s *Store) EnableShm() error {
	if !ShmSupported() {
		return ErrShmUnsupported
	}
	s.shmOn.Store(true)
	return nil
}

// ShmEnabled reports whether new segments are memfd-backed.
func (s *Store) ShmEnabled() bool { return s.shmOn.Load() }

// ShmStats returns a snapshot of the shared-memory transport counters.
func (s *Store) ShmStats() ShmStats {
	st := ShmStats{
		FDPassed:    s.shmc.fdPassed.Load(),
		MapBytes:    s.shmc.mapBytes.Load(),
		Leases:      s.shmc.leases.Load(),
		ReapedLocks: s.shmc.reapedLocks.Load(),
		Reaps:       s.shmc.reaps.Load(),
		AllocFails:  s.shmc.allocFails.Load(),
	}
	s.mu.Lock()
	for _, seg := range s.segments {
		if seg.shm != nil {
			st.Exported++
		}
	}
	s.mu.Unlock()
	return st
}

// shmSegment resolves a handle to its exported backing, failing for
// heap-backed segments.
func (s *Store) shmSegment(h Handle) (*shmShared, *segment, error) {
	seg, err := s.lookupHandle(h)
	if err != nil {
		return nil, nil, err
	}
	if seg.shm == nil {
		return nil, nil, fmt.Errorf("segment %q not memfd-backed: %w", seg.name, ErrShmUnsupported)
	}
	return seg.shm, seg, nil
}

// ReapShmLease force-releases every exported stripe lock word still held by
// lease — called when the control connection that owned the lease dies.
// Returns the number of lock words cleared across all segments.
func (s *Store) ReapShmLease(lease uint32) int {
	if lease < 2 {
		return 0 // 0 = no lease, 1 = the server itself
	}
	s.mu.Lock()
	//lint:ignore hotalloc reap runs once per dead control connection, not on the data path
	shs := make([]*shmShared, 0, len(s.segments))
	for _, seg := range s.segments {
		if seg.shm != nil {
			shs = append(shs, seg.shm)
		}
	}
	s.mu.Unlock()
	n := 0
	for _, sh := range shs {
		n += sh.reapLease(lease)
	}
	if n > 0 {
		s.shmc.reapedLocks.Add(int64(n))
		s.shmc.reaps.Add(1)
	}
	return n
}

// shmCtlSum sums one control-header counter over every exported segment —
// the scrape-time view behind the transport="shm" op counters.
func (s *Store) shmCtlSum(off int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t int64
	for _, seg := range s.segments {
		if seg.shm != nil {
			t += int64(seg.shm.word64(off).Load())
		}
	}
	return t
}
