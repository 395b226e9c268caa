// Package wireproto is the golden corpus for the wireproto analyzer:
// dispatch arms that do / do not record a latency observation, directly,
// through callees or through a Span, and one control-plane arm whose
// finding a directive suppresses.
package wireproto

type opcode byte

const (
	opPing   opcode = 1
	opStore  opcode = 2
	opStatus opcode = 4
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
	}
}
