package smb

import "fmt"

// Wire verbs of the snapshot tier (DESIGN.md §17). Three opcodes carry the
// whole consistency contract across the wire:
//
//   - opSnapshot    takes a consistent cut of one segment and pins it
//     server-side; the reply is the (id, version, size) triple.
//   - opSnapRead    reads a byte range out of a pinned snapshot. This is
//     the serving hot path: the server copies out of the cut it already
//     holds, with no lock, so a storm of accumulates cannot convoy readers.
//   - opSnapRelease unpins a snapshot and hands its cut buffer back for
//     the next cut.
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

// serveSnap serves the snapshot verbs; chained from serveShm's default arm.
// Opcodes without a table row never get this far (decodeCall rejects them).
func (s *Server) serveSnap(q call, cs *connState) (reply, error) {
	switch q.op {
	//lint:ignore wireproto control-plane verb: one frame per published snapshot, not a data-path latency
	case opSnapshot:
		info, err := s.store.Snapshot(Handle(q.w[0]))
		return words(uint64(info.ID), info.Version, uint64(info.Size)), err
	case opSnapRead:
		return s.serveBulk(q, cs)
	//lint:ignore wireproto control-plane verb: one frame per retired snapshot, not a data-path latency
	case opSnapRelease:
		return reply{}, s.store.SnapRelease(SnapID(q.w[0]))
	default:
		return reply{}, fmt.Errorf("smb: unknown opcode %d", q.op)
	}
}
