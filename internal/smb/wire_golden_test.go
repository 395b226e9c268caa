package smb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"net"
	"os"
	"strings"
	"sync"
	"testing"

	"shmcaffe/internal/telemetry"
)

// Golden wire bytes: the request frames of every surviving verb, captured
// from the commit before the chunk pipeline and the plain-tcp fork were
// deleted (testdata/wire_requests.golden), plus the five shm control
// requests captured from the last commit that had three frame writers.
// The one encoder (StreamClient.do) must keep reproducing them byte for
// byte, on the staged path (small payloads) and the vectored path
// (payloads of at least sgMinPayload over real TCP).

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/wire_requests.golden from the current encoder")

const goldenPath = "testdata/wire_requests.golden"

// retiredOpcodes are the opcode bytes of deleted verbs: the version watch
// (9 version, 10 wait-update) and the chunk pipeline (11 chunk, 12 end).
// They stay unassigned: a server must reject them like any unknown opcode.
var retiredOpcodes = map[byte]bool{9: true, 10: true, 11: true, 12: true}

// recordingProxy forwards TCP connections to target and records the
// client→server byte stream of each, in accept order.
type recordingProxy struct {
	ln net.Listener

	mu   sync.Mutex
	recs []*bytes.Buffer // guarded by mu
}

func startRecordingProxy(t *testing.T, target string) *recordingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &recordingProxy{ln: ln}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				continue
			}
			rec := new(bytes.Buffer)
			p.mu.Lock()
			p.recs = append(p.recs, rec)
			p.mu.Unlock()
			wg.Add(2)
			go func() {
				defer wg.Done()
				defer up.Close()
				buf := make([]byte, 64<<10)
				for {
					n, err := down.Read(buf)
					if n > 0 {
						// Record before forwarding: once the client sees the
						// reply, its request is already in the record.
						p.mu.Lock()
						rec.Write(buf[:n])
						p.mu.Unlock()
						if _, werr := up.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				defer down.Close()
				io.Copy(down, up)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return p
}

// recorded returns a copy of what connection i has sent so far.
func (p *recordingProxy) recorded(i int) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i >= len(p.recs) {
		return nil
	}
	return append([]byte(nil), p.recs[i].Bytes()...)
}

// wholeFrames checks that b is a sequence of complete length-prefixed
// frames and returns how many.
func wholeFrames(b []byte) (int, error) {
	n := 0
	for len(b) > 0 {
		if len(b) < 4 {
			return n, fmt.Errorf("dangling %d-byte length prefix", len(b))
		}
		l := int(binary.LittleEndian.Uint32(b))
		if len(b) < 4+l {
			return n, fmt.Errorf("frame of %d bytes truncated to %d", l, len(b)-4)
		}
		b = b[4+l:]
		n++
	}
	return n, nil
}

func goldenPattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*3 + seed
	}
	return b
}

// goldenStep is one scripted client call; the frames it puts on the wire
// are compared with (or, under -update-golden, become) the fixture entry.
type goldenStep struct {
	name string
	run  func() error
}

func loadGolden(t *testing.T) map[string][]byte {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hx, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		b, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("%s: entry %s: %v", goldenPath, name, err)
		}
		out[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenWireRequests replays a fixed script of verbs through a
// recording TCP proxy and compares every request frame with the fixture.
func TestGoldenWireRequests(t *testing.T) {
	srv := startServer(t)
	srv.SetTracer(telemetry.NewTracer(1024)) // so opHello grants the trace extension
	proxy := startRecordingProxy(t, srv.Addr())

	c, err := Dial(proxy.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sup := NewSupervisedClient(SupervisedConfig{Addr: proxy.ln.Addr().String(), ClientID: 9})
	defer sup.Close()

	// sgMinPayload bytes: the smallest payload that leaves vectored.
	const segBytes = sgMinPayload
	small := goldenPattern(32, 5)
	bulk := goldenPattern(segBytes, 17)
	readBuf := make([]byte, segBytes)
	tc := TraceContext{TraceID: 0x1122334455667788, SpanID: 0x99aabbccddeeff00, Rank: 3, Iter: 41}

	// Store keys, handles and snapshot ids count up from 1, so the script
	// is deterministic: wg is key 1 / handle 1, dw key 2 / handle 2.
	var wgKey, dwKey SHMKey
	var wg, dw, supWg, supDw Handle
	var snap SnapInfo
	dataVerbs := func(prefix string) []goldenStep {
		return []goldenStep{
			{prefix + "write", func() error { return c.Write(wg, 16, small) }},
			{prefix + "write_bulk", func() error { return c.Write(dw, 0, bulk) }},
			{prefix + "read", func() error { return c.Read(wg, 8, readBuf[:24]) }},
			{prefix + "read_bulk", func() error { return c.Read(dw, 0, readBuf) }},
			{prefix + "accumulate", func() error { return c.Accumulate(wg, dw) }},
			{prefix + "seq_accumulate", func() error {
				seq := uint64(1)
				if prefix != "" {
					seq = 2
				}
				_, err := c.SeqAccumulate(wg, dw, 7, seq)
				return err
			}},
			{prefix + "snapshot", func() (err error) { snap, err = c.Snapshot(wg); return err }},
			{prefix + "snap_read", func() error { return c.SnapRead(snap.ID, 0, readBuf) }},
			{prefix + "snap_release", func() error { return c.SnapRelease(snap.ID) }},
			{prefix + "lookup", func() (err error) { _, err = c.Lookup("golden/wg"); return err }},
		}
	}
	steps := []goldenStep{
		{"hello", func() error {
			ok, err := c.NegotiateTrace()
			if err == nil && !ok {
				err = fmt.Errorf("trace extension not granted")
			}
			return err
		}},
		{"create", func() (err error) { wgKey, err = c.Create("golden/wg", segBytes); return err }},
		{"create_dw", func() (err error) { dwKey, err = c.Create("golden/dw", segBytes); return err }},
		{"attach", func() (err error) { wg, err = c.Attach(wgKey); return err }},
		{"attach_dw", func() (err error) { dw, err = c.Attach(dwKey); return err }},
	}
	steps = append(steps, dataVerbs("")...)
	steps = append(steps, goldenStep{"set_trace", func() error { c.SetTraceContext(tc); return nil }})
	steps = append(steps, dataVerbs("traced_")...)
	steps = append(steps,
		goldenStep{"traced_attach", func() (err error) { _, err = c.Attach(dwKey); return err }},
		goldenStep{"traced_detach", func() error { return c.Detach(3) }},
		goldenStep{"clear_trace", func() error { c.ClearTraceContext(); return nil }},
		goldenStep{"detach", func() error { return c.Detach(dw) }},
	)

	got := map[string][]byte{}
	var order []string
	runSteps := func(conn int, steps []goldenStep) {
		t.Helper()
		for _, st := range steps {
			before := len(proxy.recorded(conn))
			if err := st.run(); err != nil {
				t.Fatalf("step %s: %v", st.name, err)
			}
			frames := proxy.recorded(conn)[before:]
			if _, err := wholeFrames(frames); err != nil {
				t.Fatalf("step %s: %v", st.name, err)
			}
			if len(frames) > 0 {
				got[st.name] = frames
				order = append(order, st.name)
			}
		}
	}
	runSteps(0, steps)

	// The supervised push over its own connection: attach replay, then the
	// Write + SeqAccumulate pair stamped (client 9, seq 1).
	runSteps(1, []goldenStep{
		{"supervised_attach", func() (err error) { supWg, err = sup.Attach(wgKey); return err }},
		{"supervised_attach_dw", func() (err error) { supDw, err = sup.Attach(dwKey); return err }},
		{"supervised_push", func() error { return sup.WriteAccumulate(supWg, supDw, bulk) }},
	})
	runSteps(0, []goldenStep{
		{"free", func() error { return c.Free(dwKey) }},
	})

	// The shm control plane, requests only: over plain TCP against a store
	// that exports nothing the server answers most of these with a remote
	// error, which is fine — the request frame is what the fixture pins.
	remoteOK := func(err error) error {
		if retryable(err) {
			return err
		}
		return nil
	}
	runSteps(0, []goldenStep{
		{"shm_hello", func() error { _, err := c.ShmHello(); return remoteOK(err) }},
		{"shm_map", func() error { _, _, err := c.shmMap(wg); return remoteOK(err) }},
		{"shm_unmap", func() error { return remoteOK(c.ShmUnmap(wg)) }},
		{"shm_lease", func() error { return remoteOK(c.ShmLease(2)) }},
		{"shm_query", func() error { _, _, _, err := c.ShmQuery(); return err }},
	})
	// opShmQuery carries this host's boot id: mask it so the fixture is
	// host-independent ([4B len][1B op][8B boot id]).
	clear(got["shm_query"][5:13])

	if *updateGolden {
		var b strings.Builder
		b.WriteString("# Request frames of the SMB wire protocol, one `name hex` entry per scripted\n")
		b.WriteString("# step of TestGoldenWireRequests. Regenerate: go test ./internal/smb -run\n")
		b.WriteString("# TestGoldenWireRequests -update-golden (only when the protocol changes on purpose).\n")
		for _, name := range order {
			fmt.Fprintf(&b, "%s %s\n", name, hex.EncodeToString(got[name]))
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want := loadGolden(t)
	for _, name := range order {
		w, ok := want[name]
		if !ok {
			t.Errorf("step %s has no fixture entry", name)
			continue
		}
		if !bytes.Equal(got[name], w) {
			t.Errorf("step %s: wire bytes diverge from the fixture\n got %x\nwant %x",
				name, clip(got[name]), clip(w))
		}
	}
	if len(want) != len(order) {
		t.Errorf("fixture has %d entries, script produced %d", len(want), len(order))
	}

	// The bare-connection push is spelled with the same frames: the bulk
	// Write of ΔWx, then the Accumulate.
	kd, err := c.Create("golden/dw2", segBytes)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := c.Attach(kd)
	if err != nil {
		t.Fatal(err)
	}
	before := len(proxy.recorded(0))
	if err := c.WriteAccumulate(wg, hd, bulk); err != nil {
		t.Fatal(err)
	}
	push := proxy.recorded(0)[before:]
	// The fixture's write_bulk and accumulate frames, with the src handle
	// (dw there, dw2 here) patched in: [4B len][1B op][8B handle]... for
	// Write, [4B len][1B op][8B dst][8B src] for Accumulate.
	wb := append([]byte(nil), want["write_bulk"]...)
	binary.LittleEndian.PutUint64(wb[5:], uint64(hd))
	acc := append([]byte(nil), want["accumulate"]...)
	binary.LittleEndian.PutUint64(acc[13:], uint64(hd))
	wantPush := append(wb, acc...)
	if !bytes.Equal(push, wantPush) {
		t.Fatalf("push frames are not Write + Accumulate\n got %x\nwant %x", clip(push), clip(wantPush))
	}
}

// clip shortens a frame dump to its informative head.
func clip(b []byte) []byte {
	if len(b) > 96 {
		return b[:96]
	}
	return b
}

// TestRetiredOpcodesRejected: the version-watch and chunk-pipeline opcodes
// are gone; a peer that still sends them gets the ordinary unknown-opcode
// error reply — a correctly framed one, so the connection stays usable.
func TestRetiredOpcodesRejected(t *testing.T) {
	srv := startServer(t)
	c := dialT(t, srv)
	key, err := c.Create("wg", 16)
	if err != nil {
		t.Fatal(err)
	}
	for op := range retiredOpcodes {
		// The client has no encoder for a row-less opcode, so the frame is
		// written raw on its connection.
		c.mu.Lock()
		err := writeFrame(c.conn, op, make([]byte, 31))
		status, resp, rerr := readFrame(c.conn)
		c.mu.Unlock()
		if err != nil || rerr != nil {
			t.Fatalf("opcode %d: %v / %v", op, err, rerr)
		}
		if status != statusErr || !strings.Contains(string(resp), fmt.Sprintf("unknown opcode %d", op)) {
			t.Fatalf("opcode %d: status %d %q, want the unknown-opcode error", op, status, resp)
		}
		if got, err := c.Lookup("wg"); err != nil || got != key {
			t.Fatalf("connection unusable after retired opcode %d: %v, %v", op, got, err)
		}
	}
}

// TestTCPNamesShareOnePath: "tcp" and "tcp_sg" are two names of one
// dialer — same client type, same two-frame push, and a connection that
// takes the vectored path for bulk payloads.
func TestTCPNamesShareOnePath(t *testing.T) {
	srv := startServer(t)
	proxy := startRecordingProxy(t, srv.Addr())
	data := goldenPattern(2*sgMinPayload, 3)
	for i, name := range []string{"tcp", "tcp_sg"} {
		c, err := DialTransport(name, DialOptions{Addr: proxy.ln.Addr().String(), ClientID: uint64(5 + i)})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sup, ok := c.(*SupervisedClient)
		if !ok {
			t.Fatalf("DialTransport(%q) = %T, want *SupervisedClient", name, c)
		}
		kw, err := c.Create(name+"/wg", len(data))
		if err != nil {
			t.Fatal(err)
		}
		kd, err := c.Create(name+"/dw", len(data))
		if err != nil {
			t.Fatal(err)
		}
		hw, err := c.Attach(kw)
		if err != nil {
			t.Fatal(err)
		}
		hd, err := c.Attach(kd)
		if err != nil {
			t.Fatal(err)
		}
		before := len(proxy.recorded(i))
		if err := c.WriteAccumulate(hw, hd, data); err != nil {
			t.Fatal(err)
		}
		push := proxy.recorded(i)[before:]
		if n, err := wholeFrames(push); err != nil || n != 2 {
			t.Fatalf("%s push = %d frames (%v), want Write + SeqAccumulate", name, n, err)
		}
		sup.mu.Lock()
		vectored := connWritev(sup.conn.conn)
		sup.mu.Unlock()
		if !vectored {
			t.Fatalf("%s connection %T does not take the vectored path", name, sup.conn.conn)
		}
	}
}

// opNamesInSource parses the package's non-test files and returns the names
// of the op* constants of type opcode and the keys of the opTable literal.
func opNamesInSource(t *testing.T) (consts, rows map[string]bool) {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	consts, rows = map[string]bool{}, map[string]bool{}
	for _, f := range pkgs["smb"].Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			typ := "" // carried down an iota block's implicit repetitions
			for _, sp := range gd.Specs {
				vs, ok := sp.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if id, ok := vs.Type.(*ast.Ident); ok {
					typ = id.Name
				} else if len(vs.Values) > 0 {
					typ = ""
				}
				for i, name := range vs.Names {
					switch {
					case gd.Tok == token.CONST && typ == "opcode" && strings.HasPrefix(name.Name, "op"):
						consts[name.Name] = true
					case gd.Tok == token.VAR && name.Name == "opTable":
						for _, e := range vs.Values[i].(*ast.CompositeLit).Elts {
							rows[e.(*ast.KeyValueExpr).Key.(*ast.Ident).Name] = true
						}
					}
				}
			}
		}
	}
	return consts, rows
}

// TestOpTableMatchesDispatch: the table is the protocol. Every op* constant
// has a row and every row a constant; over one connection, every opcode
// byte with a row is served by an arm — a zero-argument frame built from the
// row gets OK or a typed remote error, a frame one word short gets the
// decode error — and every byte without one gets unknown-opcode. Nothing
// panics and the connection is never dropped.
func TestOpTableMatchesDispatch(t *testing.T) {
	consts, rows := opNamesInSource(t)
	if len(consts) == 0 || len(rows) == 0 {
		t.Fatalf("found %d op constants and %d table rows in the source", len(consts), len(rows))
	}
	for name := range consts {
		if !rows[name] {
			t.Errorf("%s has no opTable row", name)
		}
	}
	for name := range rows {
		if !consts[name] {
			t.Errorf("opTable row %s is not an opcode constant", name)
		}
	}

	srv := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exchange := func(op byte, payload []byte) (ok bool, msg string) {
		t.Helper()
		if err := writeFrame(conn, op, payload); err != nil {
			t.Fatalf("opcode %d: %v", op, err)
		}
		status, resp, err := readFrame(conn)
		if err != nil {
			t.Fatalf("opcode %d: connection dropped: %v", op, err)
		}
		if status == statusOK {
			return true, ""
		}
		fr := frameReader{buf: resp}
		return false, fr.str()
	}
	for op := 1; op < 128; op++ {
		if _, err := specOf(opcode(op)); err != nil {
			if ok, msg := exchange(byte(op), nil); ok || !strings.Contains(msg, "unknown opcode") {
				t.Errorf("opcode %d has no row but was answered ok=%v %q", op, ok, msg)
			}
			continue
		}
		if retiredOpcodes[byte(op)] {
			t.Errorf("retired opcode %d has a table row", op)
		}
		full := zeroArgPayload(opcode(op))
		if ok, msg := exchange(byte(op), full); !ok && strings.Contains(msg, "unknown opcode") {
			t.Errorf("opcode %d (%s) has a row but no server arm: %q", op, opTable[op].name, msg)
		}
		short := full[:max(0, len(full)-8)]
		if ok, msg := exchange(byte(op), short); ok || !strings.Contains(msg, io.ErrUnexpectedEOF.Error()) {
			t.Errorf("opcode %d (%s) one word short: ok=%v %q, want the decode error", op, opTable[op].name, ok, msg)
		}
	}
}

// zeroArgPayload builds the all-zero request payload of op's table row.
func zeroArgPayload(op opcode) []byte {
	spec := opTable[op]
	n := 8 * spec.words
	if spec.str {
		n += 2
	}
	return make([]byte, n)
}
