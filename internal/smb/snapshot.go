package smb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Copy-on-write versioned snapshots (DESIGN.md §17).
//
// Store.Read is atomic per 64 KiB stripe only: a reader spanning stripes
// can observe a buffer with some stripes before and some after a
// concurrent Accumulate — tolerable for SEASGD's relaxed weight pulls,
// a correctness bug the moment the live buffer feeds inference. Snapshot
// gives multi-stripe readers a consistent cut without funneling the write
// path through a reader lock convoy:
//
//   - Every mutating store operation (Write, Accumulate, WriteAccumulate)
//     holds its target segment's op gate in read mode for the whole sweep. Steady state this is one uncontended
//     RWMutex.RLock per op — the write path stays wait-free.
//   - Snapshot takes the gate exclusively for the brief cut: with no op
//     mid-sweep it arms one copy-on-write mark per stripe, records the
//     version, and registers itself on the segment. O(stripes) stores; no
//     data is copied at cut time.
//   - Writers re-entering a stripe first service the marks: the stripe's
//     pre-image is copied once into a pooled COW page and published, then
//     the stripe's epoch word goes odd for the duration of the mutation.
//   - Snapshot readers are lock-free: a stripe with a published page reads
//     the page; a pristine stripe seqlock-reads the live bytes (epoch even
//     and unchanged across the copy, and still no page ⇒ the bytes are the
//     cut's bytes). A torn attempt retries; a bounded retry storm falls
//     back to the stripe's read lock, which always succeeds.
//
// Exported (memfd-backed) segments cannot COW against mapped writers in
// other processes, so their snapshots copy eagerly under the shared
// snapshot gate in the control page (shmseg.go): mapped clients hold the
// gate in read mode per op, the cut drains them and copies the segment
// once. Snapshot reads then serve from the private copy.

// ErrUnknownSnapshot reports a snapshot ID that is not live on this store
// (never taken, already released, or taken by a server incarnation that
// has since restarted). Callers recover by taking a fresh snapshot.
var ErrUnknownSnapshot = errors.New("smb: unknown snapshot")

// SnapID identifies one live snapshot on one store.
type SnapID uint64

// SnapInfo describes a snapshot cut: its ID, the segment version the cut
// captured, and the segment size in bytes.
type SnapInfo struct {
	ID      SnapID
	Version uint64
	Size    int
}

// Snapshotter is the consistent-read part of Client: Snapshot takes a cut
// of the segment behind h, SnapRead serves bytes of that cut (bitwise
// stable for the snapshot's lifetime, whatever the write traffic), and
// SnapRelease retires it.
type Snapshotter interface {
	Snapshot(h Handle) (SnapInfo, error)
	SnapRead(id SnapID, off int, dst []byte) error
	SnapRelease(id SnapID) error
}

// snapReadMaxTries bounds the seqlock retry loop of one stripe before the
// reader falls back to the stripe's read lock. Each failed attempt means a
// writer ran during our copy — and the first writer after the cut
// publishes the stripe's COW page, so the second attempt normally serves
// from the page. The bound only matters for pathological schedules.
const snapReadMaxTries = 8

// snapPagePool recycles COW pages (one stripe each) across snapshots, so
// a steady snapshot-refresh loop against a storming writer reuses the
// same few pages instead of churning the heap.
var snapPagePool = sync.Pool{New: func() any {
	b := make([]byte, chunkBytes)
	return &b
}}

// snapCounters is the store's always-on snapshot accounting.
type snapCounters struct {
	nextID    atomic.Uint64
	taken     atomic.Int64 // snapshots cut
	live      atomic.Int64 // cut but not yet released
	reads     atomic.Int64 // SnapRead verbs served
	cowPages  atomic.Int64 // stripe pre-images copied by writers
	retries   atomic.Int64 // seqlock attempts re-run after a torn copy
	exhausted atomic.Int64 // stripe reads that fell back to the stripe lock
	gateFails atomic.Int64 // exported cuts whose mapped-writer drain timed out
}

// snapState is one live snapshot. Exactly one of {marks/pages, buf} is in
// use: heap segments snapshot lazily (COW against the live bytes),
// exported segments snapshot eagerly into buf.
type snapState struct {
	seg     *segment
	id      SnapID
	version uint64

	// Lazy COW state (heap segments). marks[ci] == 1 while stripe ci is
	// still pristine since the cut; the first writer swaps it to 0, copies
	// the pre-image into a pooled page, and publishes it in pages[ci].
	marks []atomic.Uint32
	pages []atomic.Pointer[[]byte]

	// Eager copy (exported segments): the whole cut, taken under the
	// shared snapshot gate.
	buf []byte

	c *snapCounters
}

// cowStripe services the pending copy-on-write marks of stripe ci before
// the caller mutates it. Runs inside the stripe's exclusive lock and
// under the op gate in read mode, so it cannot race a snapshot being
// registered or released. Off the hot path unless a snapshot is live.
func (seg *segment) cowStripe(ci int, snaps []*snapState) {
	lo, hi := seg.chunkRange(ci)
	for _, sn := range snaps {
		if sn.marks[ci].Swap(0) != 1 {
			continue
		}
		p := snapPagePool.Get().(*[]byte)
		if cap(*p) < hi-lo {
			*p = make([]byte, hi-lo)
		}
		*p = (*p)[:hi-lo]
		copy(*p, seg.data[lo:hi])
		// Publish before the epoch word goes odd (program order of the
		// atomics): a reader that sees the epoch disturbed is guaranteed
		// to find the page on its retry.
		sn.pages[ci].Store(p)
		sn.c.cowPages.Add(1)
	}
}

// Snapshot takes a consistent cut of the segment behind h and returns its
// ID, captured version, and size. The cut is atomic with respect to every
// whole store operation: Write, Accumulate, SeqAccumulate and
// WriteAccumulate (a wire push is a Write then an Accumulate, so a snapshot
// may land between the two — see DESIGN.md §17 for the exact contract per
// transport).
//
// Heap segments cut lazily (no bytes copied until a writer returns);
// exported segments copy eagerly under the shared snapshot gate, which
// drains mapped writers in other processes first.
func (s *Store) Snapshot(h Handle) (SnapInfo, error) {
	seg, err := s.lookupHandle(h)
	if err != nil {
		return SnapInfo{}, err
	}
	sn := &snapState{seg: seg, c: &s.snapc}
	if seg.shm != nil {
		sn.buf = make([]byte, len(seg.data))
		seg.gate.Lock() // excludes in-process ops
		drained := seg.shm.snapGateLock()
		if drained {
			copy(sn.buf, seg.data)
			sn.version = seg.shm.version()
			seg.shm.snapGateUnlock()
		} else {
			// The mapped-writer drain timed out — a mapped client died (or
			// stalled) mid-op and its gate hold cannot be attributed or
			// reaped. Degrade to a per-stripe-atomic copy under the shared
			// stripe words rather than block serving forever; the cut is
			// still consistent against every in-process op (the gate above)
			// and the degradation is counted.
			s.snapc.gateFails.Add(1)
			for ci := 0; ci < seg.shm.stripes; ci++ {
				lo, hi := seg.chunkRange(ci)
				seg.shm.lockStripe(ci, shmServerLease)
				copy(sn.buf[lo:hi], seg.data[lo:hi])
				seg.shm.unlockStripe(ci, shmServerLease)
			}
			sn.version = seg.shm.version()
		}
		seg.gate.Unlock()
	} else {
		n := len(seg.locks)
		sn.marks = make([]atomic.Uint32, n)
		sn.pages = make([]atomic.Pointer[[]byte], n)
		for i := range sn.marks {
			sn.marks[i].Store(1)
		}
		seg.gate.Lock() // no op is mid-sweep while held
		sn.version = seg.version.Load()
		old := seg.snaps.Load()
		var list []*snapState
		if old != nil {
			list = append(list, *old...)
		}
		list = append(list, sn)
		seg.snaps.Store(&list)
		seg.gate.Unlock()
	}
	sn.id = SnapID(s.snapc.nextID.Add(1))
	s.snapMu.Lock()
	table := make(map[SnapID]*snapState)
	if old := s.snapTable.Load(); old != nil {
		for k, v := range *old {
			table[k] = v
		}
	}
	table[sn.id] = sn
	s.snapTable.Store(&table)
	s.snapMu.Unlock()
	s.snapc.taken.Add(1)
	s.snapc.live.Add(1)
	return SnapInfo{ID: sn.id, Version: sn.version, Size: len(seg.data)}, nil
}

// SnapRead copies len(dst) bytes of snapshot id starting at off into dst.
// The result is bitwise identical across calls for the snapshot's
// lifetime, regardless of concurrent writes to the underlying segment.
// The steady-state path takes no locks and allocates nothing
// (alloc_test.go pins this).
//
//shm:hotpath
func (s *Store) SnapRead(id SnapID, off int, dst []byte) error {
	var sn *snapState
	if t := s.snapTable.Load(); t != nil {
		sn = (*t)[id]
	}
	if sn == nil {
		return fmt.Errorf("snap read %d: %w", uint64(id), ErrUnknownSnapshot)
	}
	size := len(sn.seg.data)
	if off < 0 || off+len(dst) > size {
		return fmt.Errorf("snap read [%d,%d) of %d-byte snapshot %d: %w",
			off, off+len(dst), size, id, ErrOutOfRange)
	}
	ins := s.inst.Load()
	var t0 time.Time
	if ins != nil {
		t0 = time.Now()
	}
	if sn.buf != nil {
		copy(dst, sn.buf[off:off+len(dst)])
	} else {
		for covered := 0; covered < len(dst); {
			start := off + covered
			ci := start / chunkBytes
			_, hi := sn.seg.chunkRange(ci)
			if end := off + len(dst); hi > end {
				hi = end
			}
			s.snapReadStripe(sn, ci, start, dst[covered:covered+(hi-start)])
			covered += hi - start
		}
	}
	s.snapc.reads.Add(1)
	s.stats.bytesRead.Add(int64(len(dst)))
	if ins != nil {
		ins.snapReadLatency.ObserveSeconds(time.Since(t0).Nanoseconds())
	}
	return nil
}

// snapReadStripe serves [start, start+len(dst)) of stripe ci from
// snapshot sn. Page first (a writer already preserved the pre-image);
// otherwise a seqlock read of the live bytes: if the stripe's epoch is
// even and unchanged across the copy AND no page has been published, no
// writer has touched the stripe since the cut — the live bytes are the
// cut's bytes. The page re-check after the copy is load-bearing: a writer
// that completed a full publish+mutate cycle between our epoch loads
// would otherwise validate a post-cut copy.
//
//shm:hotpath
func (s *Store) snapReadStripe(sn *snapState, ci, start int, dst []byte) {
	seg := sn.seg
	lo := ci * chunkBytes
	// The optimistic branch below is a seqlock: it deliberately copies
	// bytes a writer may be mutating and discards the copy when the epoch
	// says so. That is an intentional data race the detector cannot see
	// past the validation of, so race builds serve through the stripe lock
	// instead — same results, different synchronization.
	if !raceEnabled {
		for tries := 0; tries < snapReadMaxTries; tries++ {
			if p := sn.pages[ci].Load(); p != nil {
				copy(dst, (*p)[start-lo:start-lo+len(dst)])
				return
			}
			if e1 := seg.epochs[ci].Load(); e1&1 == 0 {
				copy(dst, seg.data[start:start+len(dst)])
				if seg.epochs[ci].Load() == e1 && sn.pages[ci].Load() == nil {
					return
				}
			}
			s.snapc.retries.Add(1)
		}
		// A writer storm kept tearing the seqlock attempts. Under the
		// stripe's read lock no writer is mid-mutation, so either the page
		// exists (some writer ran since the cut) or the stripe is still
		// pristine.
		s.snapc.exhausted.Add(1)
	}
	seg.locks[ci].RLock()
	if p := sn.pages[ci].Load(); p != nil {
		copy(dst, (*p)[start-lo:start-lo+len(dst)])
	} else {
		copy(dst, seg.data[start:start+len(dst)])
	}
	seg.locks[ci].RUnlock()
}

// SnapRelease retires a snapshot: the ID stops resolving, COW pages
// return to the pool, and writers stop preserving pre-images for it.
// Reads of the snapshot still in flight during the release race it and
// may observe recycled page contents — release after the last read
// returns, as one would free any buffer.
func (s *Store) SnapRelease(id SnapID) error {
	s.snapMu.Lock()
	var sn *snapState
	old := s.snapTable.Load()
	if old != nil {
		sn = (*old)[id]
	}
	if sn == nil {
		s.snapMu.Unlock()
		return fmt.Errorf("snap release %d: %w", uint64(id), ErrUnknownSnapshot)
	}
	table := make(map[SnapID]*snapState, len(*old)-1)
	for k, v := range *old {
		if k != id {
			table[k] = v
		}
	}
	s.snapTable.Store(&table)
	s.snapMu.Unlock()
	s.snapc.live.Add(-1)
	if sn.buf != nil {
		return nil
	}
	seg := sn.seg
	seg.gate.Lock()
	if old := seg.snaps.Load(); old != nil {
		list := make([]*snapState, 0, len(*old))
		for _, o := range *old {
			if o != sn {
				list = append(list, o)
			}
		}
		if len(list) == 0 {
			seg.snaps.Store(nil)
		} else {
			seg.snaps.Store(&list)
		}
	}
	seg.gate.Unlock()
	// cowStripe runs under the gate in read mode, so after the exclusive
	// section above no writer can still be copying into sn's pages; they
	// are quiescent and safe to recycle.
	for i := range sn.pages {
		if p := sn.pages[i].Swap(nil); p != nil {
			snapPagePool.Put(p)
		}
	}
	return nil
}

// SnapCount returns the number of live snapshots (scrape gauge and test
// hook).
func (s *Store) SnapCount() int { return int(s.snapc.live.Load()) }
