package smb

import (
	"errors"
	"fmt"
)

// Wire verbs of the snapshot tier (DESIGN.md §17). Three opcodes carry the
// whole consistency contract across the wire:
//
//   - opSnapshot    takes a consistent cut of one segment and pins it
//     server-side; the reply is the (id, version, size) triple.
//   - opSnapRead    reads a byte range out of a pinned snapshot. This is
//     the serving hot path: against a lazy (heap) snapshot the server's
//     read is lock-free, so a storm of accumulates cannot convoy readers.
//   - opSnapRelease unpins a snapshot and recycles its COW pages.
//
// Snapshots are connection-independent server state keyed by SnapID — any
// connection to the same server may read or release an id another produced
// (cmd/shmserve leans on this: the refresh loop and the release of the
// previous snapshot ride one connection, but crash recovery may not).
const (
	opSnapshot    opcode = 20
	opSnapRead    opcode = 21
	opSnapRelease opcode = 22
)

// dispatchSnap serves the snapshot verbs; chained from dispatchShm's
// default arm, and the one place unknown opcodes (never assigned, or
// retired: 9–12) are answered.
func (s *Server) dispatchSnap(op opcode, payload []byte, cs *connState) ([]byte, error) {
	fr := frameReader{buf: payload}
	switch op {
	//lint:ignore wireproto control-plane verb: one frame per published snapshot, not a data-path latency
	case opSnapshot:
		h := fr.u64()
		if fr.err != nil {
			return nil, fr.err
		}
		info, err := s.store.Snapshot(Handle(h))
		if err != nil {
			return nil, err
		}
		return cs.fw.u64(uint64(info.ID)).u64(info.Version).u64(uint64(info.Size)).buf, nil
	case opSnapRead:
		id := fr.u64()
		off := fr.u64()
		n := fr.u64()
		if fr.err != nil {
			return nil, fr.err
		}
		if n > maxFrame {
			return nil, ErrFrameTooLarge
		}
		if uint64(cap(cs.out)) < n {
			cs.out = make([]byte, n)
		}
		dst := cs.out[:n]
		if err := s.store.SnapRead(SnapID(id), int(off), dst); err != nil {
			return nil, err
		}
		return dst, nil
	//lint:ignore wireproto control-plane verb: one frame per retired snapshot, not a data-path latency
	case opSnapRelease:
		id := fr.u64()
		if fr.err != nil {
			return nil, fr.err
		}
		return nil, s.store.SnapRelease(SnapID(id))
	default:
		return nil, fmt.Errorf("smb: unknown opcode %d", op)
	}
}

// Snapshot implements Client over the wire.
func (c *StreamClient) Snapshot(h Handle) (SnapInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.beginLocked().u64(uint64(h))
	resp, err := c.roundTripLocked(opSnapshot)
	if err != nil {
		return SnapInfo{}, err
	}
	fr := frameReader{buf: resp}
	info := SnapInfo{ID: SnapID(fr.u64()), Version: fr.u64(), Size: int(fr.u64())}
	return info, fr.err
}

// SnapRead implements Client. Like Read, the reply payload lands
// straight in dst with no staging copy.
//
//shm:hotpath
func (c *StreamClient) SnapRead(id SnapID, off int, dst []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.beginLocked().u64(uint64(id)).u64(uint64(off)).u64(uint64(len(dst)))
	return c.roundTripReadIntoLocked(opSnapRead, dst)
}

// SnapRelease implements Client over the wire.
func (c *StreamClient) SnapRelease(id SnapID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.beginLocked().u64(uint64(id))
	_, err := c.roundTripLocked(opSnapRelease)
	return err
}

// Snapshot implements Client with supervision. A retry whose first
// attempt succeeded server-side but lost the reply leaks that snapshot
// until the store is torn down — bounded by the retry budget and visible
// in smb_snapshots_live, and preferable to not retrying at all (the verb
// is cheap and the caller is usually a serving loop that must make
// progress). SnapIDs do not survive a reconnect: the server that restarts
// has no snapshot table, so SnapRead after failover returns
// ErrUnknownSnapshot and the caller retakes the cut.
func (c *SupervisedClient) Snapshot(h Handle) (SnapInfo, error) {
	var info SnapInfo
	err := c.withHandle("snapshot", h, func(sc *StreamClient, rh Handle) (err error) {
		info, err = sc.Snapshot(rh)
		return err
	})
	return info, err
}

// SnapRead implements Client (idempotent; retried).
func (c *SupervisedClient) SnapRead(id SnapID, off int, dst []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.withRetry("snap-read", func(sc *StreamClient) error {
		return sc.SnapRead(id, off, dst)
	})
}

// SnapRelease implements Client. An unknown id is success: either a
// previous attempt's release landed before its reply was lost, or the
// server restarted and the snapshot died with it — in both cases the pin
// is gone, which is all the caller wants.
func (c *SupervisedClient) SnapRelease(id SnapID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.withRetry("snap-release", func(sc *StreamClient) error {
		return sc.SnapRelease(id)
	})
	if errors.Is(err, ErrUnknownSnapshot) {
		return nil
	}
	return err
}

// shardedSnap is one sharded snapshot: the per-shard snapshot ids plus the
// geometry handle they were cut from.
type shardedSnap struct {
	sh      *shardedHandle
	subs    []SnapID
	version uint64
}

// Snapshot implements Client as a per-shard version-vector cut: every
// shard's snapshot is internally consistent (no torn accumulate within a
// shard), and the vector of shard versions is recorded at cut time. The
// cut is NOT globally atomic across servers — shard A may be at iteration
// N and shard B at N+1 if an accumulate lands between the fan-out calls —
// but under the DeepSpark-style async-update model that is the same class
// of staleness the trainers already tolerate, and it is a strict upgrade
// over the seed's ShardedClient.Read, which had no cut at all (each shard
// read could additionally be torn internally). Version is the sum of the
// shard versions, so it is monotonic and changes whenever any shard moved.
func (s *ShardedClient) Snapshot(h Handle) (SnapInfo, error) {
	sh, err := s.handle(h)
	if err != nil {
		return SnapInfo{}, err
	}
	snap := &shardedSnap{sh: sh, subs: make([]SnapID, len(s.clients))}
	for i, c := range s.clients {
		info, err := c.Snapshot(sh.subs[i])
		if err != nil {
			// Best-effort release of the shards already cut.
			for j := 0; j < i; j++ {
				_ = s.clients[j].SnapRelease(snap.subs[j])
			}
			return SnapInfo{}, fmt.Errorf("shard %d snapshot: %w", i, err)
		}
		snap.subs[i] = info.ID
		snap.version += info.Version
	}
	s.mu.Lock()
	s.nextSnap++
	id := s.nextSnap
	if s.snaps == nil {
		s.snaps = make(map[SnapID]*shardedSnap)
	}
	s.snaps[id] = snap
	s.mu.Unlock()
	return SnapInfo{ID: id, Version: snap.version, Size: sh.total}, nil
}

// SnapRead implements Client: fan-out reads against the pinned
// per-shard snapshots, concurrently across servers.
func (s *ShardedClient) SnapRead(id SnapID, off int, dst []byte) error {
	s.mu.Lock()
	snap := s.snaps[id]
	s.mu.Unlock()
	if snap == nil {
		return fmt.Errorf("smb: sharded snap read %d: %w", uint64(id), ErrUnknownSnapshot)
	}
	return s.parallelRange(snap.sh, off, dst, func(i, shardOff int, part []byte) error {
		return s.clients[i].SnapRead(snap.subs[i], shardOff, part)
	})
}

// SnapRelease implements Client: unpins every shard snapshot.
func (s *ShardedClient) SnapRelease(id SnapID) error {
	s.mu.Lock()
	snap := s.snaps[id]
	delete(s.snaps, id)
	s.mu.Unlock()
	if snap == nil {
		return fmt.Errorf("smb: sharded snap release %d: %w", uint64(id), ErrUnknownSnapshot)
	}
	var firstErr error
	for i := range s.clients {
		if err := s.clients[i].SnapRelease(snap.subs[i]); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return firstErr
}
