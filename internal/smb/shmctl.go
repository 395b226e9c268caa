package smb

import (
	"errors"
	"fmt"
	"time"

	"shmcaffe/internal/telemetry"
)

// Unix-domain control verbs of the shared-memory transport (DESIGN.md §16).
// The control socket speaks the ordinary frame protocol; only the data path
// is mapped. Five verbs:
//
//   - opShmHello   grants the connection a lease — the identity its shared
//     stripe-lock acquisitions carry, and what the server reaps when the
//     connection dies.
//   - opShmMap     exports one segment: the reply carries the geometry, and
//     the memfd follows as SCM_RIGHTS ancillary data on a one-byte carrier
//     message (stream ordering makes the hand-off deterministic).
//   - opShmUnmap   retires a mapping (accounting only; the client's munmap
//     is what actually releases memory).
//   - opShmLease   renews/validates the lease — the heartbeat a client can
//     use to distinguish "server gone" from "socket idle".
//   - opShmQuery   answers "is the zero-copy path on offer, and are we on
//     the same kernel?" — served over TCP too, which is how a worker
//     auto-negotiates: query over TCP, compare boot ids, then dial the
//     advertised unix socket. Old servers answer with a clean unknown-
//     opcode error and the client falls back to TCP, exactly like trace
//     negotiation.
const (
	opShmHello opcode = 15
	opShmMap   opcode = 16
	opShmUnmap opcode = 17
	opShmLease opcode = 18
	opShmQuery opcode = 19
)

// shmQueryOffered is the opShmQuery reply flag: the server exports memfd
// segments and advertises a control socket path.
const shmQueryOffered uint64 = 1 << 0

// errNoShmLease reports a map/lease verb issued before opShmHello.
var errNoShmLease = errors.New("smb: no shm lease on this connection (hello first)")

// errShmNotOffered reports that the server is not exporting segments.
var errShmNotOffered = errors.New("smb: shm transport not offered by this server")

// serveShm serves the shared-memory control verbs; chained from serve's
// default arm.
func (s *Server) serveShm(q call, cs *connState) (reply, error) {
	switch q.op {
	//lint:ignore wireproto control-plane verb: one frame per control connection, not a data-path latency
	case opShmHello: // q.w[0]: feature flags, reserved
		if !ShmSupported() || !s.store.ShmEnabled() {
			return reply{}, errShmNotOffered
		}
		if cs.lease == 0 {
			cs.lease = s.shmLeases.Add(1) + 1 // leases start at 2; 1 is the server
			s.store.shmc.leases.Add(1)
			s.activeShm.Add(1)
		}
		return words(uint64(cs.lease)), nil
	//lint:ignore wireproto control-plane verb: one frame per mapped segment, not a data-path latency
	case opShmMap:
		h := Handle(q.w[0])
		if cs.lease == 0 {
			return reply{}, errNoShmLease
		}
		if !canPassFD(cs.conn) {
			return reply{}, errFDTransport
		}
		sh, seg, err := s.store.shmSegment(h)
		if err != nil {
			return reply{}, err
		}
		// The fd goes out as ancillary data right after this OK reply —
		// handleConn sends it before reading the next request frame.
		cs.passFD = sh.fd
		s.store.shmc.fdPassed.Add(1)
		s.store.shmc.mapBytes.Add(int64(len(sh.m)))
		if cs.shmMaps == nil {
			cs.shmMaps = make(map[Handle]int64)
		}
		cs.shmMaps[h] += int64(len(sh.m))
		telemetry.RecordEvent(telemetry.EvShmMap, int64(seg.key), int64(len(sh.m)), 0)
		return words(uint64(seg.key), uint64(sh.ctlBytes), uint64(len(sh.dat)), uint64(sh.stripes)), nil
	//lint:ignore wireproto control-plane verb: one frame per unmapped segment, not a data-path latency
	case opShmUnmap:
		h := Handle(q.w[0])
		// Only retire mappings this connection made: a duplicate or
		// unsolicited unmap must not drive the map-bytes gauge negative.
		b, ok := cs.shmMaps[h]
		if !ok {
			return reply{}, fmt.Errorf("smb: handle %d was not mapped on this connection", h)
		}
		delete(cs.shmMaps, h)
		s.store.shmc.mapBytes.Add(-b)
		return reply{}, nil
	//lint:ignore wireproto control-plane verb: a heartbeat frame, not a data-path latency
	case opShmLease:
		if cs.lease == 0 || uint64(cs.lease) != q.w[0] {
			return reply{}, errNoShmLease
		}
		return words(uint64(cs.lease)), nil
	//lint:ignore wireproto control-plane verb: one frame per dial, not a data-path latency
	case opShmQuery: // q.w[0]: client boot id, informational
		r := words(0, localBootID())
		r.str = s.ShmAddr()
		if ShmSupported() && s.store.ShmEnabled() && r.str != "" {
			r.w[0] = shmQueryOffered
		}
		return r, nil
	default:
		return s.serveSnap(q, cs)
	}
}

// SetShmAddr advertises the unix-domain control socket path in opShmQuery
// replies; cmd/smbserver sets it when serving with -shm.
func (s *Server) SetShmAddr(path string) { s.shmPath.Store(path) }

// ShmAddr returns the advertised control socket path ("" = none).
func (s *Server) ShmAddr() string {
	p, _ := s.shmPath.Load().(string)
	return p
}

// Client-side control verbs.

// shmGeometry is the opShmMap reply: where the data region lives inside the
// mapped file.
type shmGeometry struct {
	key      SHMKey
	ctlBytes int
	size     int
	stripes  int
}

// ShmHello requests a lease on this control connection. The server must be
// exporting segments; against a non-shm or old server the remote error
// surfaces directly (DialShm treats it as "not offered").
func (c *StreamClient) ShmHello() (uint32, error) {
	r, err := c.do(call{op: opShmHello})
	return uint32(r.w[0]), err
}

// shmMap maps the segment behind h: one round trip for the geometry, then
// the fd arrives as ancillary data and the file is mmapped. Only valid on a
// unix-domain connection.
func (c *StreamClient) shmMap(h Handle) (*shmShared, shmGeometry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, err := c.doLocked(call{op: opShmMap, w: [4]uint64{uint64(h)}})
	g := shmGeometry{key: SHMKey(r.w[0]), ctlBytes: int(r.w[1]), size: int(r.w[2]), stripes: int(r.w[3])}
	if err != nil {
		return nil, g, err
	}
	// The fd's carrier byte is the next thing on the stream; a failure here
	// desyncs the framing, so it poisons like any transport error.
	if dc, ok := c.conn.(deadlineConn); ok && c.opTimeout > 0 {
		dc.SetReadDeadline(time.Now().Add(c.opTimeout))
		defer dc.SetReadDeadline(time.Time{})
	}
	fd, err := recvConnFD(c.conn)
	if err != nil {
		return nil, g, c.poisonLocked(fmt.Errorf("smb shm fd pass: %w: %w", ErrTransport, err))
	}
	sh, err := mapShmShared(fd, g.ctlBytes, g.size)
	if err != nil {
		shmCloseOS(fd, nil)
		return nil, g, err
	}
	return sh, g, nil
}

// ShmUnmap retires the server-side accounting of one mapping.
func (c *StreamClient) ShmUnmap(h Handle) error {
	_, err := c.do(call{op: opShmUnmap, w: [4]uint64{uint64(h)}})
	return err
}

// ShmLease validates/renews the connection's lease.
func (c *StreamClient) ShmLease(lease uint32) error {
	_, err := c.do(call{op: opShmLease, w: [4]uint64{uint64(lease)}})
	return err
}

// ShmQuery asks whether the server offers the zero-copy path. Like
// NegotiateTrace, an old server's unknown-opcode reply is a clean "no":
// (0, 0, "", nil) with the connection fully usable. Only transport
// failures surface as errors.
func (c *StreamClient) ShmQuery() (flags, serverBootID uint64, path string, err error) {
	r, err := c.do(call{op: opShmQuery, w: [4]uint64{localBootID()}})
	if err != nil && !retryable(err) {
		err = nil // old or non-shm server: framing intact
	}
	return r.w[0], r.w[1], r.str, err
}
