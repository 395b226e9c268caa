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

// LocalClient is the in-process transport: direct calls into a Store. Used
// when all workers run as goroutines of one process (the functional
// experiments) and as the server-side backend of the TCP transport.
type LocalClient struct {
	store *Store
}

var _ Client = (*LocalClient)(nil)

// NewLocalClient returns a client operating directly on store.
func NewLocalClient(store *Store) *LocalClient {
	return &LocalClient{store: store}
}

// Create implements Client.
func (c *LocalClient) Create(name string, size int) (SHMKey, error) {
	return c.store.Create(name, size)
}

// Lookup implements Client.
func (c *LocalClient) Lookup(name string) (SHMKey, error) { return c.store.Lookup(name) }

// Attach implements Client.
func (c *LocalClient) Attach(key SHMKey) (Handle, error) { return c.store.Attach(key) }

// Detach implements Client.
func (c *LocalClient) Detach(h Handle) error { return c.store.Detach(h) }

// Free implements Client.
func (c *LocalClient) Free(key SHMKey) error { return c.store.Free(key) }

// Read implements Client.
func (c *LocalClient) Read(h Handle, off int, dst []byte) error {
	return c.store.Read(h, off, dst)
}

// Write implements Client.
func (c *LocalClient) Write(h Handle, off int, src []byte) error {
	return c.store.Write(h, off, src)
}

// Accumulate implements Client.
func (c *LocalClient) Accumulate(dst, src Handle) error {
	return c.store.Accumulate(dst, src)
}

// WriteAccumulate implements Client as one fused copy+add store call.
func (c *LocalClient) WriteAccumulate(dst, src Handle, data []byte) error {
	return c.store.WriteAccumulate(dst, src, data)
}

// SetTraceContext implements Client: in-process calls cross no wire, so
// there is nothing to stamp.
func (c *LocalClient) SetTraceContext(TraceContext) {}

// ClearTraceContext implements Client.
func (c *LocalClient) ClearTraceContext() {}

// Close implements Client.
func (c *LocalClient) Close() error { return nil }

// Counter helpers: the termination-alignment protocol (paper Sec. III-E)
// shares per-worker iteration counts through a small control segment laid
// out as consecutive int64 slots.

// WriteInt64 stores v at slot index (8-byte slots) of the segment.
func WriteInt64(c Client, h Handle, slot int, v int64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	return c.Write(h, slot*8, buf[:])
}

// ReadInt64 loads the int64 at slot index of the segment.
func ReadInt64(c Client, h Handle, slot int) (int64, error) {
	var buf [8]byte
	if err := c.Read(h, slot*8, buf[:]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(buf[:])), nil
}

// ReadInt64Slots loads n consecutive int64 slots starting at slot 0. The
// byte staging buffer comes from the package scratch pool, so the only
// allocation is the returned slice.
func ReadInt64Slots(c Client, h Handle, n int) ([]int64, error) {
	buf, bp := getScratch(8 * n)
	defer putScratch(bp)
	if err := c.Read(h, 0, buf); err != nil {
		return nil, err
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out, nil
}

// ReadInt64SlotsInto loads len(out) consecutive int64 slots starting at
// slot 0 into out. Unlike ReadInt64Slots it allocates nothing on the steady
// state — the telemetry staleness probe calls it once per T1 read with a
// preallocated slice.
func ReadInt64SlotsInto(c Client, h Handle, out []int64) error {
	buf, bp := getScratch(8 * len(out))
	defer putScratch(bp)
	if err := c.Read(h, 0, buf); err != nil {
		return err
	}
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return nil
}

// ReadInt64SlotsAtInto loads len(out) consecutive int64 slots starting at
// startSlot into out, allocating nothing on the steady state — the liveness
// tracker reads the heartbeat block of the control segment with it.
func ReadInt64SlotsAtInto(c Client, h Handle, startSlot int, out []int64) error {
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
