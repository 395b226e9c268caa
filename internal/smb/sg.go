package smb

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// Scatter-gather TCP path (DESIGN.md §11): the frame protocol's bytes are
// unchanged, but bulk payloads are not staged. Outbound, header and payload
// leave in one writev (net.Buffers) with the payload going out of the
// caller's buffer — chosen per frame from what the code observes: a
// connection with real writev support and a payload of at least
// sgMinPayload. Inbound, a Read reply lands directly in the caller's
// destination buffer on every connection. The iovec list is registered per
// connection and grow-only, so the steady state allocates nothing.

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
	//lint:ignore hotalloc the iovec backing is registered per connection and grow-only
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

// writeFrameVec writes one frame as [header][payload] in a single vectored
// write, skipping writeFrameInto's staging copy of the payload. The
// server's bulk-reply path: protocol bytes are identical either way.
//
//shm:hotpath
func writeFrameVec(w io.Writer, op byte, payload []byte, vw *vecWriter, scratch *[]byte) error {
	if len(payload)+1 > maxFrame {
		return ErrFrameTooLarge
	}
	if cap(*scratch) < 5 {
		//lint:ignore hotalloc grow-only per-connection staging, amortized to zero
		*scratch = make([]byte, 5)
	}
	buf := (*scratch)[:5]
	binary.LittleEndian.PutUint32(buf[:4], uint32(1+len(payload)))
	buf[4] = op
	vw.reset()
	vw.add(buf)
	vw.add(payload)
	return vw.writeTo(w)
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

// writeFrameVecLocked sends one request frame whose payload is the staged
// head (c.req.buf) followed by body, as a single vectored write — the body
// never passes through the wire-staging buffer. Caller holds c.mu.
//
//shm:hotpath
func (c *StreamClient) writeFrameVecLocked(op byte, body []byte) error {
	head := c.req.buf
	traced := c.traceOK && c.tc.TraceID != 0
	hn := 5 + len(head)
	if traced {
		hn += traceHeaderLen
	}
	if hn-4+len(body) > maxFrame {
		return ErrFrameTooLarge
	}
	if cap(c.wire) < hn {
		//lint:ignore hotalloc grow-only per-client staging, amortized to zero
		c.wire = make([]byte, hn)
	}
	buf := c.wire[:hn]
	// The staged head lives inside buf, so only body counts as trailing
	// payload for the length stamp.
	b := sgStampHdr(buf, op, len(body), traced, c.tc)
	copy(buf[b:], head)
	c.vw.reset()
	c.vw.add(buf)
	c.vw.add(body)
	return c.vw.writeTo(c.conn)
}

// roundTripReadIntoLocked is the direct-landing Read round trip: the reply
// header is parsed on its own and, when the payload has the expected size,
// it is read straight into dst — no staging through the response scratch.
// Error replies and unexpected sizes take the scratch path with unchanged
// semantics. Caller holds c.mu.
//
//shm:hotpath
func (c *StreamClient) roundTripReadIntoLocked(op opcode, dst []byte) error {
	if err := c.sendLocked(op, nil); err != nil {
		return err
	}
	dc, deadlines := c.conn.(deadlineConn)
	deadlines = deadlines && c.opTimeout > 0
	if deadlines {
		dc.SetReadDeadline(time.Now().Add(c.opTimeout))
	}
	// The reply header lands in the wire scratch (free again once the
	// request is out): a local array would escape through the io.Reader
	// interface and cost one allocation per op.
	if cap(c.wire) < 5 {
		//lint:ignore hotalloc grow-only per-client staging, amortized to zero
		c.wire = make([]byte, 5)
	}
	hdr := c.wire[:5]
	if _, err := io.ReadFull(c.conn, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return c.poisonLocked(fmt.Errorf("smb server closed connection: %w: %w", ErrTransport, err))
		}
		return c.poisonLocked(fmt.Errorf("smb response: %w: %w", ErrTransport, err))
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n == 0 || n > maxFrame {
		return c.poisonLocked(fmt.Errorf("smb response frame length %d: %w", n, ErrTransport))
	}
	status := hdr[4]
	payLen := int(n) - 1
	if status == statusOK && payLen == len(dst) {
		if _, err := io.ReadFull(c.conn, dst); err != nil {
			return c.poisonLocked(fmt.Errorf("smb response: %w: %w", ErrTransport, err))
		}
		if deadlines {
			dc.SetReadDeadline(time.Time{})
		}
		return nil
	}
	// Slow path: error reply or a size surprise — land in the scratch so
	// the connection framing stays intact either way.
	if cap(c.in) < payLen {
		c.in = make([]byte, payLen)
	}
	buf := c.in[:payLen]
	if _, err := io.ReadFull(c.conn, buf); err != nil {
		return c.poisonLocked(fmt.Errorf("smb response: %w: %w", ErrTransport, err))
	}
	if deadlines {
		dc.SetReadDeadline(time.Time{})
	}
	if status == statusErr {
		fr := frameReader{buf: buf}
		return remoteError(fr.str())
	}
	return fmt.Errorf("smb read returned %d bytes, want %d", payLen, len(dst))
}
