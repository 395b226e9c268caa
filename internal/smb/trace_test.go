package smb

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"

	"shmcaffe/internal/telemetry"
)

// Wire-level trace propagation tests: frame round trip, opHello
// negotiation, client→server span linking, and both interop directions
// (old client → new server, new client → old server).

// scriptConn is a connection that records what is written and replays a
// canned reply stream.
type scriptConn struct {
	bytes.Buffer               // requests written
	replies      *bytes.Reader // replies to serve
}

func (c *scriptConn) Read(p []byte) (int, error) { return c.replies.Read(p) }
func (c *scriptConn) Close() error               { return nil }

func TestTraceFrameRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: 0xdeadbeef, SpanID: 0x1122334455667788, Rank: 3, Iter: 41}
	payload := []byte("hello segment")
	conn := &scriptConn{replies: bytes.NewReader([]byte{1, 0, 0, 0, statusOK})}
	c := NewStreamClient(conn)
	c.traceOK = true
	c.SetTraceContext(tc)
	if err := c.Write(0, 0, payload); err != nil {
		t.Fatal(err)
	}
	buf := &conn.Buffer
	payload = append(make([]byte, 16), payload...) // handle and offset words lead the body
	op, body, err := readFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if op&traceFlagBit == 0 {
		t.Fatal("trace flag not set on wire")
	}
	if op&^byte(traceFlagBit) != byte(opWrite) {
		t.Fatalf("opcode = %d, want %d", op&^byte(traceFlagBit), opWrite)
	}
	got, rest, err := parseTraceExt(body)
	if err != nil {
		t.Fatal(err)
	}
	if got != tc {
		t.Fatalf("trace context = %+v, want %+v", got, tc)
	}
	if !bytes.Equal(rest, payload) {
		t.Fatalf("payload = %q, want %q", rest, payload)
	}

	// Undersized header must be rejected, not sliced.
	if _, _, err := parseTraceExt(body[:traceHeaderLen-1]); err == nil {
		t.Fatal("parseTraceExt accepted a truncated header")
	}
}

// tracedSpans returns the exported spans named phase that carry trace args.
func tracedSpans(tr *telemetry.Tracer, phase string) []telemetry.TraceEvent {
	var out []telemetry.TraceEvent
	for _, ev := range tr.Events() {
		if ev.Ph == "X" && ev.Name == phase && ev.Args["trace_id"] != "" {
			out = append(out, ev)
		}
	}
	return out
}

func TestTracePropagationEndToEnd(t *testing.T) {
	srv := startServer(t)
	tr := telemetry.NewTracer(4096)
	srv.SetTracer(tr)

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ok, err := c.NegotiateTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("server with tracer did not grant the trace feature")
	}

	key, err := c.Create("wg", 64)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	skey, err := c.Create("dwx", 64)
	if err != nil {
		t.Fatal(err)
	}
	src, err := c.Attach(skey)
	if err != nil {
		t.Fatal(err)
	}

	// One traced push spelled out (Write + Accumulate) and one through the
	// push verb, both under the same client span.
	tc := TraceContext{TraceID: 0x42, SpanID: telemetry.NextSpanID(1 << 48), Rank: 0, Iter: 7}
	c.SetTraceContext(tc)
	data := make([]byte, 64)
	if err := c.Write(src, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := c.Accumulate(dst, src); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAccumulate(dst, src, data); err != nil {
		t.Fatal(err)
	}
	c.ClearTraceContext()
	if _, err := c.Lookup("wg"); err != nil {
		t.Fatal(err)
	}

	wantParent := fmt.Sprintf("%016x", tc.SpanID)
	wantTrace := fmt.Sprintf("%016x", tc.TraceID)
	dispatch := tracedSpans(tr, "srv.dispatch")
	if len(dispatch) < 3 {
		t.Fatalf("traced srv.dispatch spans = %d, want >= 3", len(dispatch))
	}
	for _, ev := range dispatch {
		if ev.Args["trace_id"] != wantTrace {
			t.Fatalf("dispatch span trace_id = %s, want %s", ev.Args["trace_id"], wantTrace)
		}
		if ev.Args["parent_id"] != wantParent {
			t.Fatalf("dispatch span parent_id = %s, want %s", ev.Args["parent_id"], wantParent)
		}
	}
	// The accumulate arms nest under their dispatch spans: same trace,
	// parented on a server-minted span id, not directly on the client span.
	accs := tracedSpans(tr, "srv.acc")
	if len(accs) < 2 {
		t.Fatalf("traced srv.acc spans = %d, want >= 2 (accumulate + push)", len(accs))
	}
	dispatchIDs := map[string]bool{}
	for _, ev := range dispatch {
		dispatchIDs[ev.Args["span_id"]] = true
	}
	for _, ev := range accs {
		if ev.Args["trace_id"] != wantTrace {
			t.Fatalf("acc span trace_id = %s, want %s", ev.Args["trace_id"], wantTrace)
		}
		if !dispatchIDs[ev.Args["parent_id"]] {
			t.Fatalf("acc span parent %s is not a dispatch span", ev.Args["parent_id"])
		}
	}

	// The Lookup after ClearTraceContext must not carry the trace.
	var stray int
	for _, ev := range tr.Events() {
		if ev.Ph == "X" && ev.Args["trace_id"] == "" {
			stray++
		}
	}
	if stray == 0 {
		t.Fatal("expected at least one untraced span after ClearTraceContext")
	}
}

// TestOldClientNewServer: a client that never negotiates gets the exact
// pre-extension protocol — every verb works, and the server records its
// spans without trace linkage.
func TestOldClientNewServer(t *testing.T) {
	srv := startServer(t)
	tr := telemetry.NewTracer(1024)
	srv.SetTracer(tr)

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key, err := c.Create("seg", 32)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(h, 0, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if err := c.Accumulate(h, h); err != nil {
		t.Fatal(err)
	}
	if got := tracedSpans(tr, "srv.dispatch"); len(got) != 0 {
		t.Fatalf("untraced client produced %d traced spans", len(got))
	}
	// Spans are still recorded, just unlinked.
	found := false
	for _, ev := range tr.Events() {
		if ev.Ph == "X" && ev.Name == "srv.acc" {
			found = true
		}
	}
	if !found {
		t.Fatal("server recorded no srv.acc span for old client")
	}
}

// legacyServe emulates a pre-extension server on one connection: the
// modern opcode switch minus opHello and minus trace-header stripping —
// exactly what an old binary does with the new client's bytes.
func legacyServe(t *testing.T, ln net.Listener, store *Store) {
	t.Helper()
	srv := &Server{store: store, done: make(chan struct{})}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		cs := &connState{}
		var wire []byte
		for {
			op, payload, err := readFrameInto(conn, &cs.in)
			if err != nil {
				return
			}
			var resp []byte
			var derr error
			if opcode(op) == opHello || op&traceFlagBit != 0 {
				derr = fmt.Errorf("smb: unknown opcode %d", op)
			} else {
				cs.fw.buf = cs.fw.buf[:0]
				resp, derr = srv.dispatchOp(opcode(op), payload, cs)
			}
			if derr != nil {
				cs.fw.buf = cs.fw.buf[:0]
				cs.fw.str(derr.Error())
				if writeFrameInto(conn, statusErr, cs.fw.buf, &wire) != nil {
					return
				}
				continue
			}
			if writeFrameInto(conn, statusOK, resp, &wire) != nil {
				return
			}
		}
	}()
}

// TestNewClientOldServer: NegotiateTrace against a server that predates
// opHello degrades cleanly — (false, nil), connection intact, verbs work.
func TestNewClientOldServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	legacyServe(t, ln, NewStore())

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ok, err := c.NegotiateTrace()
	if err != nil {
		t.Fatalf("NegotiateTrace against old server errored: %v", err)
	}
	if ok {
		t.Fatal("old server cannot have granted the trace feature")
	}

	// Even with a context set, no frame may carry the flag — the old server
	// would choke on it. The verbs below crossing the legacy loop proves it.
	c.SetTraceContext(TraceContext{TraceID: 1, SpanID: 2})
	key, err := c.Create("seg", 64)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(h, 0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAccumulate(h, h, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
}

// TestNegotiateWithoutTracer: a new server without a tracer installed
// declines the feature — clients skip the stamping cost.
func TestNegotiateWithoutTracer(t *testing.T) {
	srv := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ok, err := c.NegotiateTrace()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("tracer-less server granted the trace feature")
	}
	if _, err := c.Create("seg", 16); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedTraceHeaderFatal: a flagged frame whose body cannot hold the
// trace header must kill the connection (replying could desync framing).
func TestTruncatedTraceHeaderFatal(t *testing.T) {
	srv := startServer(t)
	srv.SetTracer(telemetry.NewTracer(64))
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// body = flagged opcode + 3 bytes, far short of the 24-byte header.
	if _, err := conn.Write([]byte{4, 0, 0, 0, byte(opWrite) | traceFlagBit, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	var buf [16]byte
	if n, err := conn.Read(buf[:]); err == nil {
		t.Fatalf("server replied %d bytes to a truncated trace header, want closed conn", n)
	}
	if srv.ConnErrors() == 0 {
		t.Error("truncated trace header did not count as a connection error")
	}
}

// TestSupervisedTracePropagation: the supervised client negotiates on
// connect and re-stamps its context, so traced pushes survive the
// reconnect-and-retry layer.
func TestSupervisedTracePropagation(t *testing.T) {
	srv := startServer(t)
	tr := telemetry.NewTracer(1024)
	srv.SetTracer(tr)

	c := NewSupervisedClient(SupervisedConfig{Addr: srv.Addr(), ClientID: 7, Trace: true})
	defer c.Close()
	key, err := c.Create("wg", 32)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	skey, err := c.Create("dwx", 32)
	if err != nil {
		t.Fatal(err)
	}
	src, err := c.Attach(skey)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTraceContext(TraceContext{TraceID: 0xabc, SpanID: telemetry.NextSpanID(1 << 48), Iter: 1})
	if err := c.WriteAccumulate(dst, src, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	c.ClearTraceContext()

	accs := tracedSpans(tr, "srv.acc")
	if len(accs) == 0 {
		t.Fatal("supervised push recorded no traced srv.acc span")
	}
	want := fmt.Sprintf("%016x", 0xabc)
	for _, ev := range accs {
		if !strings.HasSuffix(ev.Args["trace_id"], want[len(want)-3:]) {
			t.Fatalf("trace_id = %s, want %s", ev.Args["trace_id"], want)
		}
	}
}
