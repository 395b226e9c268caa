package smb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// FuzzDispatch feeds arbitrary request payloads to every opcode: the
// server must return an error or a response, never panic — malformed
// frames from a buggy or hostile client cannot take the memory server
// down.
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
	f.Add(byte(opAccumulate)|traceFlagBit, []byte{1})    // flagged op leaks to dispatch
	f.Add(byte(99), []byte{1})
	// Every table row's zero-argument frame, whole and one word short.
	for op := range opTable {
		if _, err := specOf(opcode(op)); err == nil {
			full := zeroArgPayload(opcode(op))
			f.Add(byte(op), full)
			f.Add(byte(op), full[:max(0, len(full)-8)])
		}
	}
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		srv := &Server{store: NewStore()}
		// Prepare one real segment so handle-bearing ops can hit both
		// the found and not-found paths.
		key, _ := srv.store.Create("seed", 16)
		srv.store.Attach(key)
		_, err := srv.dispatch(opcode(op), payload, &connState{})
		if retiredOpcodes[op] && err == nil {
			t.Fatalf("retired opcode %d was served", op)
		}
	})
}

// FuzzFrameRoundTrip: any frame written by writeFrame is read back intact
// by readFrame.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(byte(1), []byte("payload"))
	f.Add(byte(0), []byte{})
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, op, payload); err != nil {
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

// FuzzReadFrame: arbitrary bytes must never panic the frame reader.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 0, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// Trace-flagged frame: 25-byte body (opcode|0x80 + 24-byte header).
	f.Add(append([]byte{25, 0, 0, 0, byte(opAccumulate) | traceFlagBit},
		bytes.Repeat([]byte{0xab}, 24)...))
	// Flagged frame whose body is shorter than the trace header.
	f.Add([]byte{3, 0, 0, 0, byte(opWrite) | traceFlagBit, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		op, payload, err := readFrame(bytes.NewReader(data))
		if err != nil || op&traceFlagBit == 0 {
			return
		}
		// Flagged frames must split cleanly or be rejected — never panic.
		_, _, _ = parseTraceExt(payload)
	})
}
