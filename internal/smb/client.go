package smb

import (
	"encoding/binary"
	"fmt"
)

// Client is the SMB API surface the paper describes (Sec. III-B): segment
// lifecycle, the SHM-key/access-key handshake, RDMA-style Read/Write, and
// server-side accumulation — plus the consistent-read verbs and the trace
// stamp. Every transport implements the whole set, so callers never probe
// for a capability and the distributed solvers are transport-agnostic.
type Client interface {
	// Create allocates a named segment and returns its SHM key.
	Create(name string, size int) (SHMKey, error)
	// Lookup resolves a segment name to its SHM key (used by workers that
	// receive the name, not the key, out of band).
	Lookup(name string) (SHMKey, error)
	// Attach converts an SHM key into an access handle.
	Attach(key SHMKey) (Handle, error)
	// Detach releases an access handle.
	Detach(h Handle) error
	// Free destroys a segment.
	Free(key SHMKey) error
	// Read copies len(dst) bytes from the segment at off.
	Read(h Handle, off int, dst []byte) error
	// Write stores src into the segment at off.
	Write(h Handle, off int, src []byte) error
	// Accumulate adds the src segment into the dst segment (float32-wise)
	// exclusively on the server.
	Accumulate(dst, src Handle) error
	// WriteAccumulate is the worker push (Fig. 6 T.A2–T.A3, Eq. 7): store
	// data into src at offset 0, then accumulate src into dst. data must
	// cover the whole src segment. Observable effects equal one Write plus
	// one Accumulate on every client; clients that can retry make the fold
	// exactly-once.
	WriteAccumulate(dst, src Handle, data []byte) error
	// Snapshot, SnapRead and SnapRelease are the consistent multi-stripe
	// read (snapshot.go).
	Snapshotter
	// SetTraceContext stamps the requests that follow with tc, so a tracing
	// server records its spans as children of the caller's span (trace.go);
	// ClearTraceContext stops stamping. Clients whose verbs never cross a
	// wire accept and ignore both.
	SetTraceContext(tc TraceContext)
	ClearTraceContext()
	// Close releases client resources.
	Close() error
}

// LocalClient is the in-process transport: the Store's own verbs, which
// already carry Client's exact signatures. Used when all workers run as
// goroutines of one process (the functional experiments).
type LocalClient struct {
	*Store
}

var _ Client = (*LocalClient)(nil)

// NewLocalClient returns a client operating directly on store.
func NewLocalClient(store *Store) *LocalClient {
	return &LocalClient{Store: store}
}

// SetTraceContext implements Client: in-process calls cross no wire, so
// there is nothing to stamp.
func (c *LocalClient) SetTraceContext(TraceContext) {}

// ClearTraceContext implements Client.
func (c *LocalClient) ClearTraceContext() {}

// Close implements Client.
func (c *LocalClient) Close() error { return nil }

// doer is the one primitive under every wire client: exchange one request
// frame for its reply (StreamClient.do), or do so under a retry policy
// (SupervisedClient.do).
type doer interface {
	do(call) (reply, error)
}

// verbs spells the wire verb set once, over a doer: each verb is the
// encoder of its opTable row. StreamClient and SupervisedClient embed it,
// pointing d at themselves.
type verbs struct{ d doer }

// Create implements Client.
func (v verbs) Create(name string, size int) (SHMKey, error) {
	r, err := v.d.do(call{op: opCreate, str: name, w: [4]uint64{uint64(size)}})
	return SHMKey(r.w[0]), err
}

// Lookup implements Client.
func (v verbs) Lookup(name string) (SHMKey, error) {
	r, err := v.d.do(call{op: opLookup, str: name})
	return SHMKey(r.w[0]), err
}

// Attach implements Client.
func (v verbs) Attach(key SHMKey) (Handle, error) {
	r, err := v.d.do(call{op: opAttach, w: [4]uint64{uint64(key)}})
	return Handle(r.w[0]), err
}

// Detach implements Client.
func (v verbs) Detach(h Handle) error {
	_, err := v.d.do(call{op: opDetach, w: [4]uint64{uint64(h)}})
	return err
}

// Free implements Client.
func (v verbs) Free(key SHMKey) error {
	_, err := v.d.do(call{op: opFree, w: [4]uint64{uint64(key)}})
	return err
}

// Read implements Client. The reply payload lands directly in dst.
func (v verbs) Read(h Handle, off int, dst []byte) error {
	_, err := v.d.do(call{op: opRead, w: [4]uint64{uint64(h), uint64(off), uint64(len(dst))}, into: dst})
	return err
}

// Write implements Client.
func (v verbs) Write(h Handle, off int, src []byte) error {
	_, err := v.d.do(call{op: opWrite, w: [4]uint64{uint64(h), uint64(off)}, body: src})
	return err
}

// Accumulate implements Client.
func (v verbs) Accumulate(dst, src Handle) error {
	_, err := v.d.do(call{op: opAccumulate, w: [4]uint64{uint64(dst), uint64(src)}})
	return err
}

// WriteAccumulate implements Client as the two frames of the paper's push:
// a Write of data into src, then an Accumulate of src into dst. A bare
// connection has no retry, so the fold needs no sequence stamp; the
// supervised client, which does retry, overrides this with its own.
func (v verbs) WriteAccumulate(dst, src Handle, data []byte) error {
	if err := v.Write(src, 0, data); err != nil {
		return err
	}
	return v.Accumulate(dst, src)
}

// Snapshot implements Client.
func (v verbs) Snapshot(h Handle) (SnapInfo, error) {
	r, err := v.d.do(call{op: opSnapshot, w: [4]uint64{uint64(h)}})
	return SnapInfo{ID: SnapID(r.w[0]), Version: r.w[1], Size: int(r.w[2])}, err
}

// SnapRead implements Client. Like Read, the payload lands directly in dst.
func (v verbs) SnapRead(id SnapID, off int, dst []byte) error {
	_, err := v.d.do(call{op: opSnapRead, w: [4]uint64{uint64(id), uint64(off), uint64(len(dst))}, into: dst})
	return err
}

// SnapRelease implements Client.
func (v verbs) SnapRelease(id SnapID) error {
	_, err := v.d.do(call{op: opSnapRelease, w: [4]uint64{uint64(id)}})
	return err
}

// Counter helpers: the termination-alignment protocol (paper Sec. III-E)
// shares per-worker iteration counts through a small control segment laid
// out as consecutive int64 slots.

// WriteInt64 stores v at slot index (8-byte slots) of the segment. Like
// ReadInt64SlotsAt it stages through the scratch pool: a worker reports
// progress (and beats) with it every iteration.
func WriteInt64(c Client, h Handle, slot int, v int64) error {
	buf, bp := getScratch(8)
	defer putScratch(bp)
	binary.LittleEndian.PutUint64(buf, uint64(v))
	return c.Write(h, slot*8, buf)
}

// ReadInt64 loads the int64 at slot index of the segment.
func ReadInt64(c Client, h Handle, slot int) (int64, error) {
	var buf [8]byte
	if err := c.Read(h, slot*8, buf[:]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(buf[:])), nil
}

// ReadInt64SlotsAt loads len(out) consecutive int64 slots starting at
// startSlot into out. The byte staging buffer comes from the package
// scratch pool, so the steady state allocates nothing — the telemetry
// staleness probe and the liveness tracker call it once per iteration.
func ReadInt64SlotsAt(c Client, h Handle, startSlot int, out []int64) error {
	buf, bp := getScratch(8 * len(out))
	defer putScratch(bp)
	if err := c.Read(h, 8*startSlot, buf); err != nil {
		return err
	}
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return nil
}

// SegmentNames builds the conventional segment names used by ShmCaffe's
// buffer layout (Fig. 5): one global weight buffer, one per-worker weight
// increment buffer, and one control segment.
type SegmentNames struct {
	Job string
}

// Global returns the global-weight segment name (Wg).
func (n SegmentNames) Global() string { return n.Job + "/wg" }

// Increment returns worker rank's private ΔWx segment name.
func (n SegmentNames) Increment(rank int) string {
	return fmt.Sprintf("%s/dw/%d", n.Job, rank)
}

// Control returns the progress-sharing control segment name.
func (n SegmentNames) Control() string { return n.Job + "/ctl" }
