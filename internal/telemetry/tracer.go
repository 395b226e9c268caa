package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Phase names the SEASGD timeline regions of the paper's Fig. 6. The main
// thread's critical path is T1 (read Wg), T2 (elastic update) and T4+T5
// (minibatch compute + local apply); the update thread's hidden path is
// T.A1 (acquire the exchange lock), T.A3 (the push: one WriteAccumulate
// stores ΔWx and folds it into Wg, so the paper's T.A2 store has no phase of
// its own) and T.A4 (release). T.A5 is the main thread's back-pressure stall
// when a push outlives the compute phase.
type Phase uint8

const (
	// PhaseT1 is the exposed Wg read — deliberately on the critical path
	// for staleness control.
	PhaseT1 Phase = iota
	// PhaseT2 is the elastic update of the local weight (Eqs. 5+6).
	PhaseT2
	// PhaseT45 is minibatch compute + gradient apply (T4+T5, Eq. 2).
	PhaseT45
	// PhaseTA1 is the update thread acquiring the exchange lock.
	PhaseTA1
	// PhaseTA3 is the whole push: ΔWx stored into the worker's SMB
	// increment segment and accumulated, Wg += ΔWx (Eq. 7).
	PhaseTA3
	// PhaseTA4 is the release/bookkeeping tail of the push.
	PhaseTA4
	// PhaseTA5 is the main thread blocked on the exchange lock.
	PhaseTA5

	// PhaseSrvDispatch is the SMB server handling one request frame
	// (read to reply). With trace propagation it is the server-side
	// child of the client span that sent the frame.
	PhaseSrvDispatch
	// PhaseSrvAcc is the server-side accumulate apply (Wg += ΔWx, Eq. 7).
	PhaseSrvAcc

	// NumPhases is the number of named phases.
	NumPhases = int(PhaseSrvAcc) + 1
)

// phaseNames must match the paper's Fig. 6 labels: these exact strings
// appear in the Chrome trace, the per-phase histograms, and the
// benchtables -trace breakdown.
var phaseNames = [NumPhases]string{
	"T1", "T2", "T4+T5", "T.A1", "T.A3", "T.A4", "T.A5",
	"srv.dispatch", "srv.acc",
}

// String returns the Fig. 6 label.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// PhaseFromName resolves a Fig. 6 label back to its Phase (used by the
// trace-file breakdown). ok is false for unknown names.
func PhaseFromName(name string) (Phase, bool) {
	for i, n := range phaseNames {
		if n == name {
			return Phase(i), true
		}
	}
	return 0, false
}

// HiddenPhase reports whether p runs on the update thread — the time the
// design hides behind compute (the numerator of the Fig. 6 overlap ratio).
func HiddenPhase(p Phase) bool {
	return p >= PhaseTA1 && p <= PhaseTA4
}

// slotRec is one ring slot. Fields are atomic because after the ring wraps
// two concurrent Ends can claim logical indices that alias the same slot;
// the losing span is dropped data either way, but the stores must not race.
// meta packs tid<<8 | phase.
type slotRec struct {
	start   atomic.Int64 // ns since tracer epoch
	dur     atomic.Int64 // ns
	meta    atomic.Int64
	traceID atomic.Uint64
	spanID  atomic.Uint64
	parent  atomic.Uint64
}

// spanRec is one decoded span (snapshot/export path).
type spanRec struct {
	start   int64 // ns since tracer epoch
	dur     int64 // ns
	tid     int32
	phase   Phase
	traceID uint64
	spanID  uint64
	parent  uint64
}

// TraceContext links a span into a cross-process trace. TraceID groups every
// span of one logical operation (e.g. one worker push); SpanID identifies
// this span within the trace; Parent is the SpanID of the causing span
// (zero at the root). The zero TraceContext means "untraced".
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
	Parent  uint64
}

// spanIDCounter backs NextSpanID. Process-local; distinct salts keep merged
// multi-process traces collision-free.
var spanIDCounter atomic.Uint64

// NextSpanID returns a process-unique span id with salt OR'd into the high
// bits. Workers conventionally salt with (rank+1)<<48, servers with 1<<63.
func NextSpanID(salt uint64) uint64 { return salt | spanIDCounter.Add(1) }

// Tracer records spans into a fixed-capacity ring preallocated at
// construction. Begin/End are allocation-free and safe for concurrent use
// from any number of goroutines: each End claims a distinct slot with one
// atomic add. When the ring wraps, the oldest spans are overwritten and
// counted as dropped. Export (WriteChromeTrace) must run after recording
// has quiesced — it reads the slots without synchronization.
type Tracer struct {
	epoch time.Time
	ring  []slotRec
	pos   atomic.Int64

	mu      sync.Mutex
	threads map[int32]string // tid -> display name, guarded by mu
}

// NewTracer returns a tracer with room for capacity spans (minimum 64).
func NewTracer(capacity int) *Tracer {
	if capacity < 64 {
		capacity = 64
	}
	return &Tracer{
		epoch:   time.Now(),
		ring:    make([]slotRec, capacity),
		threads: make(map[int32]string),
	}
}

// now returns nanoseconds since the tracer epoch on the monotonic clock.
func (t *Tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// NameThread registers a display name for a track (Chrome tid). Worker
// ranks conventionally use MainTID/UpdateTID so the main and update threads
// of one worker render as adjacent tracks.
func (t *Tracer) NameThread(tid int32, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threads[tid] = name
	t.mu.Unlock()
}

// MainTID returns the track id of worker rank's main thread.
func MainTID(rank int) int32 { return int32(2 * rank) }

// UpdateTID returns the track id of worker rank's update thread.
func UpdateTID(rank int) int32 { return int32(2*rank + 1) }

// Span is an open span. It is a value — Begin/End pairs allocate nothing.
// The zero Span (from a nil Tracer/Trainer) is inert: End is a no-op.
type Span struct {
	t     *Tracer
	hist  *Histogram // optional: observed with the duration on End
	start int64
	tc    TraceContext
	tid   int32
	phase Phase
}

// Begin opens a span for phase p on track tid.
func (t *Tracer) Begin(tid int32, p Phase) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, start: t.now(), tid: tid, phase: p}
}

// BeginTraced opens a span carrying a cross-process trace context. The
// context is stored with the span on End and exported as trace_id /
// span_id / parent_id args in the Chrome trace.
func (t *Tracer) BeginTraced(tid int32, p Phase, tc TraceContext) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, start: t.now(), tid: tid, phase: p, tc: tc}
}

// ObserveInto attaches a histogram that receives the span's duration on
// End, returning the updated span value.
func (s Span) ObserveInto(h *Histogram) Span {
	s.hist = h
	return s
}

// End closes the span, recording it into the ring (and the attached
// histogram, if any). Calling End on a zero Span does nothing.
func (s Span) End() {
	if s.t == nil {
		return
	}
	end := s.t.now()
	idx := s.t.pos.Add(1) - 1
	slot := &s.t.ring[int(idx%int64(len(s.t.ring)))]
	slot.start.Store(s.start)
	slot.dur.Store(end - s.start)
	slot.meta.Store(int64(s.tid)<<8 | int64(s.phase))
	slot.traceID.Store(s.tc.TraceID)
	slot.spanID.Store(s.tc.SpanID)
	slot.parent.Store(s.tc.Parent)
	if s.hist != nil {
		s.hist.ObserveSeconds(end - s.start)
	}
}

// EpochUnixNano returns the wall-clock time of the tracer's epoch. Exported
// traces embed it as metadata so a fleet merger (shmtop) can place the
// relative span timestamps of many processes on one absolute timeline.
func (t *Tracer) EpochUnixNano() int64 {
	if t == nil {
		return 0
	}
	return t.epoch.UnixNano()
}

// Len returns the number of spans currently held (≤ capacity).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := t.pos.Load()
	if n > int64(len(t.ring)) {
		return len(t.ring)
	}
	return int(n)
}

// Dropped returns how many spans were overwritten by ring wrap-around.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	if n := t.pos.Load(); n > int64(len(t.ring)) {
		return n - int64(len(t.ring))
	}
	return 0
}

// snapshot decodes the live spans out of the ring (export path; allocates).
// Spans still being written concurrently may decode torn; callers are
// documented to export only after recording quiesces.
func (t *Tracer) snapshot() []spanRec {
	n := t.Len()
	out := make([]spanRec, n)
	for i := 0; i < n; i++ {
		meta := t.ring[i].meta.Load()
		out[i] = spanRec{
			start:   t.ring[i].start.Load(),
			dur:     t.ring[i].dur.Load(),
			tid:     int32(meta >> 8),
			phase:   Phase(meta & 0xff),
			traceID: t.ring[i].traceID.Load(),
			spanID:  t.ring[i].spanID.Load(),
			parent:  t.ring[i].parent.Load(),
		}
	}
	return out
}
