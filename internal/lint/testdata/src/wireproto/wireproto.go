// Package wireproto is the golden corpus for the wireproto analyzer: an
// opcode space with one constant missing its server-dispatch arm (the
// hand-maintenance failure the analyzer exists for), one never encoded,
// one duplicating a wire value, a raw-literal case label, and dispatch
// arms that do / do not record a latency observation.
package wireproto

type opcode byte

const (
	opPing   opcode = 1
	opStore  opcode = 2
	opDrop   opcode = 3 // want `opcode opDrop \(value 3\) has no dispatch arm in any switch over opcode`
	opStatus opcode = 4 // want `opcode opStatus is never encoded: no call puts it on the wire`
	opAlias  opcode = 2 // want `opcode opAlias reuses wire value 2 of opStore`
	opFetch  opcode = 5
	opFlush  opcode = 6
	opHello  opcode = 7
)

// hist stands in for a telemetry histogram.
type hist struct{}

func (hist) Observe(v int64)         {}
func (hist) ObserveSeconds(ns int64) {}

// Span stands in for a telemetry span, whose End records the sample.
type Span struct{}

func (Span) End() {}

type tracer struct{}

func (tracer) Begin(phase int) Span { return Span{} }

var lat hist
var tr tracer

func handleStore(payload []byte) { applyStore(payload) }

func applyStore(payload []byte) {
	_ = payload
	lat.ObserveSeconds(1)
}

func work() {}

func dispatch(op opcode, payload []byte) {
	switch op {
	case opPing:
		lat.Observe(1) // direct observation
	case opStore:
		handleStore(payload) // observes two calls deep
	case opStatus: // want `dispatch arm for opStatus records no latency observation`
		work()
	case opFetch:
		sp := tr.Begin(1)
		work()
		sp.End() // Span.End counts as the observation
	case opFlush: // want `dispatch arm for opFlush records no latency observation`
	//lint:ignore wireproto hello is control-plane: one frame per session, no data-path latency
	case opHello:
		work()
	case 9: // want `raw literal case in switch over opcode; use the named op\* constant`
		lat.Observe(1)
	}
}

func send(op opcode, payload []byte) {
	_ = op
	_ = payload
}

// call is the request-by-value shape: an opcode named as a field of a
// struct literal passed to a call is encoded just like a bare argument.
type call struct{ op opcode }

func do(c call) { _ = c }

func client() {
	send(opPing, nil)
	send(opStore, nil)
	send(opDrop, nil)
	send(opAlias, nil)
	send(opFetch, nil)
	do(call{op: opFlush})
	do(call{op: opHello})
}
