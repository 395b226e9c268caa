package smb

import (
	"bytes"
	"errors"
	"testing"

	"shmcaffe/internal/telemetry"
	"shmcaffe/internal/tensor"
)

// Bulk payloads over TCP leave as one vectored write and land directly in
// the caller's buffer (sg.go). wire_golden_test.go pins the bytes; these
// tests pin results, error semantics, tracing and the zero-alloc contract.

const sgTestBytes = 1 << 20 // 1 MiB: far above sgMinPayload, 16 stripes

func sgPattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	// Keep the payload float32-aligned garbage out of WriteAccumulate: the
	// fused verb decodes float32s, so build the pattern from small floats.
	f, _ := tensor.Float32View(b)
	for i := range f {
		f[i] = float32(i%257) * 0.5
	}
	return b
}

// TestScatterGatherRoundTrip exercises the bulk verbs end to end: a Write
// (header+payload in one writev), a Read (direct landing in the caller's
// buffer), and a push built from them.
func TestScatterGatherRoundTrip(t *testing.T) {
	srv := startServer(t)
	c := dialT(t, srv)

	key, err := c.Create("wg", sgTestBytes)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	data := sgPattern(sgTestBytes, 3)
	if err := c.Write(h, 0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, sgTestBytes)
	if err := c.Read(h, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("vectored write/read corrupted the payload")
	}

	kd, err := c.Create("dw", sgTestBytes)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := c.Attach(kd)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAccumulate(h, hd, data); err != nil {
		t.Fatal(err)
	}
	if err := c.Read(h, 0, got); err != nil {
		t.Fatal(err)
	}
	want, _ := tensor.Float32View(data)
	gf, _ := tensor.Float32View(got)
	for i := range gf {
		if gf[i] != want[i]*2 {
			t.Fatalf("wg[%d] = %v after push, want %v", i, gf[i], want[i]*2)
		}
	}
	// The pushed data also landed in dw (the WRITE half of the push).
	if err := c.Read(hd, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("push did not store the increment in src")
	}
}

// TestScatterGatherErrorReply sends a bulk Read for a dead handle through
// the direct-landing path: the small error frame takes the slow path, the
// error surfaces as a remote error, and the connection stays usable.
func TestScatterGatherErrorReply(t *testing.T) {
	srv := startServer(t)
	c := dialT(t, srv)

	dst := make([]byte, sgTestBytes)
	err := c.Read(Handle(999), 0, dst)
	if err == nil {
		t.Fatal("read from unknown handle succeeded")
	}
	if errors.Is(err, ErrTransport) {
		t.Fatalf("remote error surfaced as transport poison: %v", err)
	}
	// Framing survived the error reply: the next bulk round trip works.
	key, err := c.Create("wg", sgTestBytes)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	data := sgPattern(sgTestBytes, 5)
	if err := c.Write(h, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := c.Read(h, 0, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("post-error readback corrupted")
	}
}

// TestScatterGatherTrace runs the vectored verbs with wire tracing
// negotiated: the trace extension rides the stamped headers (sgStampHdr)
// instead of the staged writer, and results stay correct.
func TestScatterGatherTrace(t *testing.T) {
	srv := startServer(t)
	srv.SetTracer(telemetry.NewTracer(4096))
	c := dialT(t, srv)
	ok, err := c.NegotiateTrace()
	if err != nil || !ok {
		t.Fatalf("NegotiateTrace = (%v, %v)", ok, err)
	}
	c.SetTraceContext(TraceContext{TraceID: 77, SpanID: 1, Rank: 2, Iter: 3})
	defer c.ClearTraceContext()

	key, err := c.Create("wg", sgTestBytes)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	kd, err := c.Create("dw", sgTestBytes)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := c.Attach(kd)
	if err != nil {
		t.Fatal(err)
	}
	data := sgPattern(sgTestBytes, 11)
	if err := c.Write(h, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAccumulate(h, hd, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, sgTestBytes)
	if err := c.Read(h, 0, got); err != nil {
		t.Fatal(err)
	}
	want, _ := tensor.Float32View(data)
	gf, _ := tensor.Float32View(got)
	for i := range gf {
		if gf[i] != want[i]*2 {
			t.Fatalf("traced push wg[%d] = %v, want %v", i, gf[i], want[i]*2)
		}
	}
}

// TestScatterGatherSteadyStateZeroAlloc holds the registered-buffer
// contract: once warmed, the vectored bulk verbs allocate nothing per op on
// the client (the in-process server shares the heap, so the guard uses the
// same epsilon as the staged-path test in alloc_test.go).
func TestScatterGatherSteadyStateZeroAlloc(t *testing.T) {
	srv := startServer(t)
	c := dialT(t, srv)

	key, err := c.Create("wg", sgTestBytes)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	kd, err := c.Create("dw", sgTestBytes)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := c.Attach(kd)
	if err != nil {
		t.Fatal(err)
	}
	data := sgPattern(sgTestBytes, 13)
	buf := make([]byte, sgTestBytes)
	for i := 0; i < 4; i++ { // warm every grow-only buffer
		if err := c.Write(h, 0, data); err != nil {
			t.Fatal(err)
		}
		if err := c.Read(h, 0, buf); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteAccumulate(h, hd, data); err != nil {
			t.Fatal(err)
		}
	}
	const eps = 0.5
	if a := testing.AllocsPerRun(50, func() {
		if err := c.Write(h, 0, data); err != nil {
			t.Fatal(err)
		}
	}); a > eps {
		t.Errorf("vectored Write allocates %.1f per op, want ~0", a)
	}
	if a := testing.AllocsPerRun(50, func() {
		if err := c.Read(h, 0, buf); err != nil {
			t.Fatal(err)
		}
	}); a > eps {
		t.Errorf("vectored Read allocates %.1f per op, want ~0", a)
	}
	if a := testing.AllocsPerRun(50, func() {
		if err := c.WriteAccumulate(h, hd, data); err != nil {
			t.Fatal(err)
		}
	}); a > eps {
		t.Errorf("bulk WriteAccumulate allocates %.1f per op, want ~0", a)
	}
}

// TestSupervisedBulkPushAcrossReconnect: the exactly-once push protocol
// holds for a bulk (vectored) payload across a connection loss.
func TestSupervisedBulkPushAcrossReconnect(t *testing.T) {
	srv := startServer(t)
	c := NewSupervisedClient(SupervisedConfig{Addr: srv.Addr(), ClientID: 71})
	defer c.Close()

	key, err := c.Create("wg", sgTestBytes)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	kd, err := c.Create("dw", sgTestBytes)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := c.Attach(kd)
	if err != nil {
		t.Fatal(err)
	}
	data := sgPattern(sgTestBytes, 17)
	if err := c.WriteAccumulate(h, hd, data); err != nil {
		t.Fatal(err)
	}
	// Kill the live connection; the next push must reconnect and apply
	// exactly once.
	c.mu.Lock()
	c.conn.conn.Close()
	c.mu.Unlock()
	if err := c.WriteAccumulate(h, hd, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, sgTestBytes)
	if err := c.Read(h, 0, got); err != nil {
		t.Fatal(err)
	}
	want, _ := tensor.Float32View(data)
	gf, _ := tensor.Float32View(got)
	for i := range gf {
		if gf[i] != want[i]*2 {
			t.Fatalf("wg[%d] = %v after reconnect push, want %v", i, gf[i], want[i]*2)
		}
	}
	if c.Stats().Reconnects < 1 {
		t.Fatalf("stats %+v, want at least one reconnect", c.Stats())
	}
}
