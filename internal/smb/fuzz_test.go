package smb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// fuzzSegBytes sizes the one segment FuzzDispatch's server holds: two
// stripes and a tail, so streamed bodies and replies cross stripe bounds.
const fuzzSegBytes = 2*chunkBytes + 40

// FuzzDispatch feeds an arbitrary request frame through a server
// connection, followed by a probe frame (a Hello asking for no feature,
// whose answer no earlier frame can change). The server must never panic — malformed frames from a buggy or
// hostile client cannot take the memory server down — and a frame it
// answers, even with an error, must leave the connection in frame: the
// probe is served too. Only a trace-flagged frame too short for its header
// may drop the connection. The same frame cut one byte short (the peer
// dying mid-frame) must drop the connection without a reply and without
// counting a Write.
func FuzzDispatch(f *testing.F) {
	f.Add(byte(opCreate), []byte{})
	f.Add(byte(opRead), []byte{1, 2, 3})
	f.Add(byte(opWrite), bytes.Repeat([]byte{0xff}, 40))
	f.Add(byte(opAccumulate), []byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2})
	// Opcodes 11 and 12 carried the retired chunk pipeline (9 and 10, in the
	// seed corpus, the retired version watch); the old seeds stay as
	// must-reject cases (see retiredOpcodes).
	f.Add(byte(11), []byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4}) // chunk hdr+pad+one float
	f.Add(byte(11), []byte{7})                           // truncated chunk header
	f.Add(byte(12), bytes.Repeat([]byte{0}, 16))         // end without chunks
	f.Add(byte(opHello), []byte{1, 0, 0, 0, 0, 0, 0, 0}) // feature negotiation
	f.Add(byte(opHello), []byte{})                       // truncated hello
	f.Add(byte(opAccumulate)|traceFlagBit, []byte{1})    // truncated trace header
	f.Add(byte(99), []byte{1})
	// Every table row's zero-argument frame, whole and one word short.
	for op := range opTable {
		if _, err := specOf(opcode(op)); err == nil {
			full := zeroArgPayload(opcode(op))
			f.Add(byte(op), full)
			f.Add(byte(op), full[:max(0, len(full)-8)])
		}
	}
	// Write bodies of at least sgMinPayload stream into the stripes: across
	// the stripe bound, past the segment end, at an offset whose end
	// overflows, for an unknown handle, and behind a trace header. Bulk
	// replies stream out of the stripes and the cut.
	body := bytes.Repeat([]byte{0x3f}, chunkBytes+sgMinPayload)
	f.Add(byte(opWrite), append(u64s(1, chunkBytes-8), body...))
	f.Add(byte(opWrite), append(u64s(1, fuzzSegBytes-sgMinPayload+8), body[:sgMinPayload]...))
	f.Add(byte(opWrite), append(u64s(1, math.MaxInt64-16), body[:sgMinPayload]...))
	f.Add(byte(opWrite), append(u64s(1, math.MaxInt64-16), body[:32]...))
	f.Add(byte(opWrite), append(u64s(77, 0), body[:sgMinPayload]...))
	f.Add(byte(opWrite)|traceFlagBit, append(append(make([]byte, traceHeaderLen), u64s(1, 0)...), body[:sgMinPayload]...))
	f.Add(byte(opRead), u64s(1, 8, fuzzSegBytes-8))
	f.Add(byte(opRead), u64s(1, math.MaxInt64-16, 32))
	f.Add(byte(opSnapRead), u64s(1, 0, fuzzSegBytes))
	f.Add(byte(opSnapRead), u64s(1, math.MaxInt64-16, sgMinPayload))
	f.Fuzz(fuzzDispatchOnce)
}

// fuzzDispatchOnce runs one FuzzDispatch input.
func fuzzDispatchOnce(t *testing.T, op byte, payload []byte) {
	srv := &Server{store: NewStore()}
	// One real segment (handle 1) and one live snapshot of it (id 1),
	// so handle- and snapshot-bearing frames hit both the found and
	// the not-found paths.
	key, _ := srv.store.Create("seed", fuzzSegBytes)
	h, _ := srv.store.Attach(key)
	srv.store.Snapshot(h)
	frame := appendFrame(nil, op, payload)
	probe := appendFrame(nil, byte(opHello), u64s(0))

	replies := serveBytes(srv, append(frame, probe...))
	if op&traceFlagBit != 0 && len(payload) < traceHeaderLen {
		if len(replies) != 0 || srv.ConnErrors() != 1 {
			t.Fatalf("truncated trace header: %d replies, %d connection errors; want the connection dropped", len(replies), srv.ConnErrors())
		}
	} else {
		if len(replies) != 2 {
			t.Fatalf("opcode %#x: %d replies to the frame and the probe, want 2", op, len(replies))
		}
		if retiredOpcodes[op&^traceFlagBit] && replies[0].status == statusOK {
			t.Fatalf("retired opcode %d was served", op)
		}
		if p := replies[1]; p.status != statusOK || !bytes.Equal(p.payload, u64s(0)) {
			t.Fatalf("opcode %#x left the connection out of frame: probe answered %d %q", op, p.status, p.payload)
		}
	}

	writes, errs := srv.store.Stats().Writes, srv.ConnErrors()
	if replies := serveBytes(srv, frame[:len(frame)-1]); len(replies) != 0 {
		t.Fatalf("opcode %#x cut short was answered", op)
	}
	if srv.ConnErrors() != errs+1 || srv.store.Stats().Writes != writes {
		t.Fatalf("opcode %#x cut short: %d connection errors, %d writes counted; want 1 and 0",
			op, srv.ConnErrors()-errs, srv.store.Stats().Writes-writes)
	}
}

// u64s encodes words little-endian, the wire's integer layout.
func u64s(w ...uint64) []byte {
	b := make([]byte, 8*len(w))
	for i, v := range w {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	return b
}

// appendFrame appends one [length][op][payload] frame to b.
func appendFrame(b []byte, op byte, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(1+len(payload)))
	return append(append(b, op), payload...)
}

// serveBytes runs srv's request loop over an in-memory connection that
// delivers in and then EOF, and returns the reply frames it wrote.
func serveBytes(srv *Server, in []byte) []rawFrame {
	var out bytes.Buffer
	srv.handle(memConn{Reader: bytes.NewReader(in), Writer: &out}, &connState{})
	var replies []rawFrame
	for {
		status, payload, err := readFrame(&out)
		if err != nil {
			return replies
		}
		replies = append(replies, rawFrame{status, payload})
	}
}

// rawFrame is one frame as a raw peer reads it.
type rawFrame struct {
	status  byte
	payload []byte
}

// FuzzFrameRoundTrip: any frame written by writeFrameInto is read back
// intact by readFrame.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(byte(1), []byte("payload"))
	f.Add(byte(0), []byte{})
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		var buf bytes.Buffer
		var scratch []byte
		if err := writeFrameInto(&buf, op, payload, &scratch); err != nil {
			t.Skip()
		}
		gotOp, gotPayload, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if gotOp != op || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("frame round trip mismatch")
		}
	})
}

// FuzzSnapVerbs runs the snapshot verbs as a state machine. Each input is
// a program of Write, Accumulate, Snapshot, SnapRead and SnapRelease on a
// segment of two stripes plus a tail; reads and releases name live,
// released and never-issued IDs, over ranges that may stray past either
// end. A model keeps the segment's float32 values (small integers, so every
// sum is exact) and, per live snapshot, the bytes the segment held when it
// was cut: every SnapRead must return exactly those bytes, whatever was
// written, accumulated, cut or released since, and every refusal must be
// ErrUnknownSnapshot or ErrOutOfRange.
func FuzzSnapVerbs(f *testing.F) {
	// Cut, write 5 over half the segment, read the cut's middle, release
	// it, read it again.
	f.Add([]byte{2, 0, 0, 0, 0x80, 0, 5, 3, 0, 0x80, 0, 0x40, 0, 4, 0, 3, 0, 0, 0, 0, 0x10})
	// Cut, write 9 over everything, cut again, read the first cut whole.
	f.Add([]byte{2, 0, 0, 0, 0xff, 0xff, 9, 2, 3, 0, 0x00, 0x10, 0xff, 0xe0})
	// Two cuts around an accumulate; release the first, write a quarter of
	// the segment and cut again into the recycled buffer; read the second
	// cut whole and the third across the stripe boundary; read a
	// never-issued ID, then past the end.
	f.Add([]byte{1, 2, 1, 2, 4, 0, 0, 0, 0, 0x40, 0, 3, 2, 3, 1, 0x00, 0x10, 0xff, 0xe0,
		3, 2, 0x7f, 0xff, 0x7f, 0x00, 3, 7, 0, 0, 0, 1, 3, 1, 0xff, 0xff, 0x10, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		const words = 2*chunkBytes/4 + 5 // two stripes plus a tail
		const size = 4 * words
		store := NewStore()
		wk, err := store.Create("fuzz/wg", size)
		if err != nil {
			t.Fatal(err)
		}
		dk, err := store.Create("fuzz/dw", size)
		if err != nil {
			t.Fatal(err)
		}
		hw, err := store.Attach(wk)
		if err != nil {
			t.Fatal(err)
		}
		hd, err := store.Attach(dk)
		if err != nil {
			t.Fatal(err)
		}
		wg, dw := make([]float32, words), make([]float32, words)
		for i := range dw {
			dw[i] = float32(i%7 - 3)
		}
		if err := store.Write(hd, 0, leFloats(dw)); err != nil {
			t.Fatal(err)
		}
		var version uint64          // whole mutating ops applied to wg
		cuts := map[SnapID][]byte{} // live snapshot → the bytes it must serve
		var ids []SnapID            // every ID issued, live or released

		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		// upTo draws a value in [0, n] from the next two bytes.
		upTo := func(n int) int { return (next()<<8 | next()) * (n + 1) >> 16 }
		pickID := func() SnapID {
			b := next()
			if len(ids) == 0 || b%8 == 7 {
				return SnapID(1<<40 + b) // never issued
			}
			return ids[b%len(ids)]
		}

		for step := 0; len(prog) > 0 && step < 64; step++ {
			switch next() % 5 {
			case 0: // Write one value over words [off, off+n)
				off := upTo(words)
				n := upTo(words - off)
				v := float32(int8(next()))
				for i := off; i < off+n; i++ {
					wg[i] = v
				}
				if err := store.Write(hw, 4*off, leFloats(wg[off:off+n])); err != nil {
					t.Fatalf("write words [%d,%d): %v", off, off+n, err)
				}
				version++
			case 1:
				if err := store.Accumulate(hw, hd); err != nil {
					t.Fatalf("accumulate: %v", err)
				}
				for i := range wg {
					wg[i] += dw[i]
				}
				version++
			case 2:
				info, err := store.Snapshot(hw)
				if err != nil {
					t.Fatalf("snapshot: %v", err)
				}
				if info.Size != size || info.Version != version {
					t.Fatalf("cut reports size %d version %d, want %d and %d", info.Size, info.Version, size, version)
				}
				cuts[info.ID] = leFloats(wg)
				ids = append(ids, info.ID)
			case 3: // SnapRead of bytes [off, off+len(dst)), possibly out of range
				id := pickID()
				off := upTo(size+64) - 32
				dst := make([]byte, upTo(size+64))
				err := store.SnapRead(id, off, dst)
				cut, live := cuts[id]
				switch {
				case !live:
					if !errors.Is(err, ErrUnknownSnapshot) {
						t.Fatalf("read of snapshot %d, not live: %v, want ErrUnknownSnapshot", uint64(id), err)
					}
				case off < 0 || off+len(dst) > size:
					if !errors.Is(err, ErrOutOfRange) {
						t.Fatalf("read [%d,%d) of a %d-byte cut: %v, want ErrOutOfRange", off, off+len(dst), size, err)
					}
				case err != nil:
					t.Fatalf("read [%d,%d) of snapshot %d: %v", off, off+len(dst), uint64(id), err)
				case !bytes.Equal(dst, cut[off:off+len(dst)]):
					t.Fatalf("snapshot %d serves bytes [%d,%d) that differ from its cut", uint64(id), off, off+len(dst))
				}
			case 4:
				id := pickID()
				err := store.SnapRelease(id)
				if _, live := cuts[id]; live {
					if err != nil {
						t.Fatalf("release of snapshot %d: %v", uint64(id), err)
					}
				} else if !errors.Is(err, ErrUnknownSnapshot) {
					t.Fatalf("release of snapshot %d, not live: %v, want ErrUnknownSnapshot", uint64(id), err)
				}
				delete(cuts, id)
			}
		}
		if n := store.SnapCount(); n != len(cuts) {
			t.Fatalf("store counts %d live snapshots, the model %d", n, len(cuts))
		}
	})
}

// leFloats encodes vals as little-endian float32 words, the segment layout.
func leFloats(vals []float32) []byte {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

// FuzzReadFrame: arbitrary bytes must never panic the server's request
// reader, and a request it accepts keeps its bounds: a head of at most
// maxHead, and a body left on the connection only for a bulk row.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 0, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// Trace-flagged frame: 25-byte body (opcode|0x80 + 24-byte header).
	f.Add(append([]byte{25, 0, 0, 0, byte(opAccumulate) | traceFlagBit},
		bytes.Repeat([]byte{0xab}, 24)...))
	// Flagged frame whose body is shorter than the trace header.
	f.Add([]byte{3, 0, 0, 0, byte(opWrite) | traceFlagBit, 1, 2})
	// A Write whose body streams, and one whose frame is cut mid-body.
	write := appendFrame(nil, byte(opWrite), append(u64s(1, 0), make([]byte, sgMinPayload)...))
	f.Add(write)
	f.Add(write[:100])
	f.Fuzz(func(t *testing.T, data []byte) {
		cs := &connState{conn: memConn{Reader: bytes.NewReader(data), Writer: io.Discard}}
		op, err := cs.readRequest()
		if err != nil {
			return
		}
		if len(cs.head) > maxHead {
			t.Fatalf("head of %d bytes, more than maxHead", len(cs.head))
		}
		if cs.body > 0 && (int(op) >= len(opTable) || !opTable[op].bulk) {
			t.Fatalf("opcode %d left a %d-byte body on the connection", op, cs.body)
		}
	})
}
