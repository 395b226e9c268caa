package smb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Wire protocol for the TCP transport. Every message is a length-prefixed
// frame:
//
//	[4B frame length (excluding itself)] [1B opcode/status] [payload]
//
// Integers are little-endian fixed width; strings are 2-byte length +
// bytes. The protocol is synchronous RPC: one response per request, in
// order. It stands in for the RDMA verbs + RDS control channel the paper's
// SMB implements in the kernel.

type opcode byte

const (
	opCreate opcode = iota + 1
	opLookup
	opAttach
	opDetach
	opFree
	opRead
	opWrite
	opAccumulate
)

// opSpec states one verb's frames, once, for both ends of the wire. A
// request payload is [string] [words × u64] [bulk tail]; an OK reply
// payload is either rwords × u64 then an optional string, or — rbulk —
// nothing but the bytes asked for. The client encoder (StreamClient.do)
// and the server decoder (Server.dispatchOp) both read the row, so a verb
// is one row, one three-line encoder (verbs, client.go) and one server arm.
type opSpec struct {
	name    string // verb name in diagnostics; "" = no such opcode
	str     bool   // request leads with a 2-byte-length string
	words   int    // request u64 words
	bulk    bool   // request ends with a bulk tail
	handles uint8  // bit i set: request word i is a connection-scoped Handle
	rwords  int    // reply u64 words
	rstr    bool   // reply ends with a string
	rbulk   bool   // reply is a bulk payload of the size the request named
}

// opTable is the protocol. Opcodes 9–12 (the retired version watch and
// chunk pipeline) have no row: a server answers them with unknown-opcode.
var opTable = [...]opSpec{
	opCreate:        {name: "create", str: true, words: 1, rwords: 1},
	opLookup:        {name: "lookup", str: true, rwords: 1},
	opAttach:        {name: "attach", words: 1, rwords: 1},
	opDetach:        {name: "detach", words: 1, handles: 1},
	opFree:          {name: "free", words: 1},
	opRead:          {name: "read", words: 3, handles: 1, rbulk: true},
	opWrite:         {name: "write", words: 2, bulk: true, handles: 1},
	opAccumulate:    {name: "accumulate", words: 2, handles: 3},
	opSeqAccumulate: {name: "seq-accumulate", words: 4, handles: 3, rwords: 1},
	opHello:         {name: "hello", words: 1, rwords: 1},
	opShmHello:      {name: "shm-hello", words: 1, rwords: 1},
	opShmMap:        {name: "shm-map", words: 1, handles: 1, rwords: 4},
	opShmUnmap:      {name: "shm-unmap", words: 1, handles: 1},
	opShmLease:      {name: "shm-lease", words: 1, rwords: 1},
	opShmQuery:      {name: "shm-query", words: 1, rwords: 2, rstr: true},
	opSnapshot:      {name: "snapshot", words: 1, handles: 1, rwords: 3},
	opSnapRead:      {name: "snap-read", words: 3, rbulk: true},
	opSnapRelease:   {name: "snap-release", words: 1},
}

// specOf returns op's table row, or an error for an opcode that has none.
func specOf(op opcode) (*opSpec, error) {
	if int(op) >= len(opTable) || opTable[op].name == "" {
		return nil, fmt.Errorf("smb: unknown opcode %d", op)
	}
	return &opTable[op], nil
}

// call is one request, by value: the table row of op says which of str, w
// and body travel. into is client-side only — where an rbulk reply lands.
type call struct {
	op   opcode
	str  string
	w    [4]uint64
	body []byte
	into []byte
}

// reply is one OK reply, by value. bulk and sent are server-side only:
// bulk is a small rbulk payload aliasing connection scratch (the client's
// landed in call.into); sent says the arm streamed the reply itself.
type reply struct {
	w    [4]uint64
	str  string
	bulk []byte
	sent bool
}

// decodeCall parses a request payload by op's table row. Bytes past the
// row's layout are ignored, as they always were.
func decodeCall(op opcode, payload []byte) (call, error) {
	spec, err := specOf(op)
	if err != nil {
		return call{}, err
	}
	q := call{op: op}
	fr := frameReader{buf: payload}
	if spec.str {
		q.str = fr.str()
	}
	for i := 0; i < spec.words; i++ {
		q.w[i] = fr.u64()
	}
	if spec.bulk {
		q.body = fr.rest()
	}
	return q, fr.err
}

const (
	statusOK  byte = 0
	statusErr byte = 1
)

// maxFrame guards against corrupt length prefixes (1 GiB of payload is far
// above any weight vector in the paper's models).
const maxFrame = 1 << 30

// ErrFrameTooLarge reports a frame exceeding maxFrame.
var ErrFrameTooLarge = errors.New("smb: frame exceeds size limit")

// writeFrameInto writes one frame — every server reply but a streamed bulk
// one — through a caller-owned, grow-only scratch: header and payload are
// staged into one buffer and sent with a single Write. Local byte arrays
// escape when passed through the io.Writer interface, so the reusable
// scratch is what keeps the steady-state wire path allocation-free (and
// it halves the syscalls per frame).
//
//shm:hotpath
func writeFrameInto(w io.Writer, op byte, payload []byte, scratch *[]byte) error {
	if len(payload)+1 > maxFrame {
		return ErrFrameTooLarge
	}
	need := 5 + len(payload)
	if cap(*scratch) < need {
		*scratch = make([]byte, need)
	}
	buf := (*scratch)[:need]
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(payload)+1))
	buf[4] = op
	copy(buf[5:], payload)
	_, err := w.Write(buf)
	return err
}

// scratchPool recycles transient byte buffers across the package: frame
// bodies, control-slot decodes. Buffers are
// held through a pointer so Put does not allocate.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// getScratch returns a length-n byte buffer from the pool (contents
// undefined) plus the handle to return it with putScratch.
func getScratch(n int) ([]byte, *[]byte) {
	p := scratchPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	return (*p)[:n], p
}

func putScratch(p *[]byte) { scratchPool.Put(p) }

// payload builder/reader helpers.

type frameWriter struct{ buf []byte }

func (b *frameWriter) u64(v uint64) *frameWriter {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	b.buf = append(b.buf, tmp[:]...)
	return b
}

func (b *frameWriter) str(s string) *frameWriter {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	var tmp [2]byte
	binary.LittleEndian.PutUint16(tmp[:], uint16(len(s)))
	b.buf = append(b.buf, tmp[:]...)
	b.buf = append(b.buf, s...)
	return b
}

func (b *frameWriter) bytes(p []byte) *frameWriter {
	b.buf = append(b.buf, p...)
	return b
}

type frameReader struct {
	buf []byte
	err error
}

func (r *frameReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[:8])
	r.buf = r.buf[8:]
	return v
}

func (r *frameReader) str() string {
	if r.err != nil {
		return ""
	}
	if len(r.buf) < 2 {
		r.err = io.ErrUnexpectedEOF
		return ""
	}
	n := int(binary.LittleEndian.Uint16(r.buf[:2]))
	r.buf = r.buf[2:]
	if len(r.buf) < n {
		r.err = io.ErrUnexpectedEOF
		return ""
	}
	//lint:ignore hotalloc str decodes only statusErr replies, where the copied message becomes the error the caller returns
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

func (r *frameReader) rest() []byte {
	if r.err != nil {
		return nil
	}
	b := r.buf
	r.buf = nil
	return b
}
