package smb

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Versioned snapshots (DESIGN.md §17).
//
// Store.Read is atomic per 64 KiB stripe only: a reader spanning stripes
// can observe a buffer with some stripes before and some after a
// concurrent Accumulate — tolerable for SEASGD's relaxed weight pulls,
// a correctness bug the moment the live buffer feeds inference. Snapshot
// gives multi-stripe readers a consistent cut, the same way for every
// segment:
//
//   - Every mutating store operation (Write, Accumulate, WriteAccumulate)
//     holds its target segment's op gate in read mode for the whole sweep.
//     Steady state this is one uncontended RWMutex.RLock per op.
//   - Snapshot takes the gate exclusively — for an exported (memfd-backed)
//     segment also the shared snapshot gate in the control page
//     (shmseg.go), which drains mapped writers in other processes — copies
//     the segment once into a cut buffer, and records the version.
//   - SnapRead is a bounds check and one copy out of that buffer;
//     SnapRelease hands the buffer back to the segment, and the next cut
//     copies into it instead of allocating.
//
// Every reader of a cut reads all of it straight away (shmserve's refresh
// is Snapshot, SnapRead of the whole segment, SnapRelease), so a lazy
// copy-on-write cut would only move the same copy later, onto the writers.

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

// snapCounters is the store's always-on snapshot accounting.
type snapCounters struct {
	nextID    atomic.Uint64
	taken     atomic.Int64 // snapshots cut
	live      atomic.Int64 // cut but not yet released
	reads     atomic.Int64 // SnapRead verbs served
	gateFails atomic.Int64 // exported cuts refused because mapped writers did not drain
}

// snapState is one live snapshot: the cut's bytes and the version they
// carry. buf is filled before the snapshot is published and only read
// after.
type snapState struct {
	seg     *segment
	version uint64
	buf     []byte
}

// Snapshot takes a consistent cut of the segment behind h and returns its
// ID, captured version, and size. The cut is atomic with respect to every
// whole store operation: Write, Accumulate, SeqAccumulate and
// WriteAccumulate (a wire push is a Write then an Accumulate, so a snapshot
// may land between the two — see DESIGN.md §17 for the exact contract per
// transport).
//
// An exported segment's cut first drains mapped writers in other
// processes. If they do not drain within shmSnapDrainNs (a mapped client
// died mid-op) the cut fails, is counted in smb_snap_gate_timeouts_total,
// and writes carry on.
func (s *Store) Snapshot(h Handle) (SnapInfo, error) {
	seg, err := s.lookupHandle(h)
	if err != nil {
		return SnapInfo{}, err
	}
	sn := &snapState{seg: seg}
	if p := seg.spare.Swap(nil); p != nil {
		sn.buf = *p
	} else {
		sn.buf = make([]byte, len(seg.data))
	}
	seg.gate.Lock() // no in-process op is mid-sweep while held
	if seg.shm != nil && !seg.shm.snapGateLock() {
		seg.gate.Unlock()
		seg.spare.Store(&sn.buf)
		s.snapc.gateFails.Add(1)
		return SnapInfo{}, fmt.Errorf("snapshot of %q: mapped writers did not drain within %v",
			seg.name, time.Duration(shmSnapDrainNs))
	}
	copy(sn.buf, seg.data)
	sn.version = seg.loadVersion()
	if seg.shm != nil {
		seg.shm.snapGateUnlock()
	}
	seg.gate.Unlock()

	id := SnapID(s.snapc.nextID.Add(1))
	s.snapMu.Lock()
	table := make(map[SnapID]*snapState)
	if old := s.snapTable.Load(); old != nil {
		for k, v := range *old {
			table[k] = v
		}
	}
	table[id] = sn
	s.snapTable.Store(&table)
	s.snapMu.Unlock()
	s.snapc.taken.Add(1)
	s.snapc.live.Add(1)
	return SnapInfo{ID: id, Version: sn.version, Size: len(sn.buf)}, nil
}

// SnapRead copies len(dst) bytes of snapshot id starting at off into dst.
// The result is bitwise identical across calls for the snapshot's
// lifetime, regardless of concurrent writes to the underlying segment.
// It takes no locks and allocates nothing (alloc_test.go pins this).
//
//shm:hotpath
func (s *Store) SnapRead(id SnapID, off int, dst []byte) error {
	x := stripeIO{buf: dst}
	return s.snapRead(id, off, len(dst), &x)
}

// snapRead hands bytes [off, off+n) of snapshot id's cut to x: the
// caller's buffer, or the connection a wire SnapRead reply leaves by
// straight from the cut (server.go).
//
//shm:hotpath
func (s *Store) snapRead(id SnapID, off, n int, x *stripeIO) error {
	var sn *snapState
	if t := s.snapTable.Load(); t != nil {
		sn = (*t)[id]
	}
	if sn == nil {
		return fmt.Errorf("snap read %d: %w", uint64(id), ErrUnknownSnapshot)
	}
	if size := len(sn.buf); off < 0 || n < 0 || off > size || n > size-off {
		return fmt.Errorf("snap read [%d,%d) of %d-byte snapshot %d: %w",
			off, off+n, size, id, ErrOutOfRange)
	}
	ins := s.inst.Load()
	var t0 time.Time
	if ins != nil {
		t0 = time.Now()
	}
	// A Read reply's group per move (one vectored write when streamed), so
	// a streamed reply's deadline bounds progress, not the whole transfer.
	const span = replyStripes * chunkBytes
	for lo, end := off, off+n; lo < end; lo += span {
		if err := x.move(sn.buf[lo:min(lo+span, end)], false); err != nil {
			return err
		}
	}
	s.snapc.reads.Add(1)
	s.stats.bytesRead.Add(int64(n))
	if ins != nil {
		ins.snapReadLatency.ObserveSeconds(time.Since(t0).Nanoseconds())
	}
	return nil
}

// SnapRelease retires a snapshot: the ID stops resolving and its cut
// buffer goes back to the segment for the next Snapshot. Reads of the
// snapshot still in flight during the release race it and may observe
// the next cut's bytes — release after the last read returns, as one
// would free any buffer.
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
	sn.seg.spare.Store(&sn.buf)
	return nil
}

// SnapCount returns the number of live snapshots (scrape gauge and test
// hook).
func (s *Store) SnapCount() int { return int(s.snapc.live.Load()) }
