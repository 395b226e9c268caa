package smb

import (
	"bytes"
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
