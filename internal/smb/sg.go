package smb

import (
	"encoding/binary"
	"io"
	"net"
)

// Scatter-gather TCP path (DESIGN.md §11): the frame protocol's bytes are
// unchanged, but bulk payloads are not staged. Outbound, header and payload
// leave in one writev (net.Buffers) with the payload going out of the
// caller's buffer — chosen per frame from what the code observes: a
// connection with real writev support and a payload of at least
// sgMinPayload. Inbound, a Read reply lands directly in the caller's
// destination buffer on every connection. The server mirrors both halves
// on every connection (server.go): a Write body of at least sgMinPayload
// is received straight into the segment's stripes, and a bulk reply
// leaves from the stripes (or a snapshot's cut) in vectored writes. The
// iovec list is registered per connection and grow-only, so the steady
// state allocates nothing.

// sgMinPayload is the payload size below which vectoring is not worth it:
// tiny frames are cheaper staged into one contiguous write than described
// to the kernel as two iovecs.
const sgMinPayload = 4 << 10

// connWritev reports whether conn reaches the kernel's writev via
// net.Buffers (TCP, unix sockets). Elsewhere net.Buffers would degrade
// into one write per iovec, which is strictly worse than staging.
func connWritev(conn io.ReadWriteCloser) bool {
	switch conn.(type) {
	case *net.TCPConn, *net.UnixConn:
		return true
	}
	return false
}

// vecWriter is a registered iovec list: the [][]byte backing is grow-only
// and owned by one connection, and the net.Buffers header lives inside the
// struct so WriteTo's pointer receiver never forces a fresh heap slice
// header per write (a local `net.Buffers` escapes — one allocation per op,
// exactly what the registered-buffer design exists to avoid).
type vecWriter struct {
	vec  [][]byte    // registered backing, grow-only
	bufs net.Buffers // transient WriteTo view into vec's backing
}

//shm:hotpath
func (vw *vecWriter) reset() { vw.vec = vw.vec[:0] }

//shm:hotpath
func (vw *vecWriter) add(b []byte) {
	vw.vec = append(vw.vec, b)
}

// writeTo flushes the gathered iovecs as one vectored write and drops the
// payload references so large buffers are not pinned between ops.
//
//shm:hotpath
func (vw *vecWriter) writeTo(w io.Writer) error {
	vw.bufs = net.Buffers(vw.vec)
	_, err := vw.bufs.WriteTo(w) //lint:ignore netdeadline callers arm the connection write deadline before each flush
	vw.bufs = nil
	for i := range vw.vec {
		vw.vec[i] = nil
	}
	vw.vec = vw.vec[:0]
	return err
}

// sgStampHdr fills a frame header slab entry: length, opcode (trace-flagged
// and trace-stamped when traced), returning the offset where the payload
// head continues. payload is the byte count that follows the slab entry on
// the wire.
//
//shm:hotpath
func sgStampHdr(h []byte, op byte, payload int, traced bool, tc TraceContext) int {
	binary.LittleEndian.PutUint32(h[:4], uint32(len(h)-4+payload))
	if !traced {
		h[4] = op
		return 5
	}
	h[4] = op | traceFlagBit
	binary.LittleEndian.PutUint64(h[5:13], tc.TraceID)
	binary.LittleEndian.PutUint64(h[13:21], tc.SpanID)
	binary.LittleEndian.PutUint32(h[21:25], tc.Rank)
	binary.LittleEndian.PutUint32(h[25:29], tc.Iter)
	return 29
}
