package telemetry

import "fmt"

// Trainer bundles the instruments one training run shares across its
// workers: the span tracer plus the preregistered SEASGD metrics. A nil
// *Trainer disables everything — the worker code instruments
// unconditionally and pays one branch per record when telemetry is off.
//
// Metric inventory (all under the seasgd_ prefix):
//
//	seasgd_phase_seconds{phase=...}      histogram, one series per Fig. 6 phase
//	seasgd_t1_staleness_iterations      histogram: remote iterations completed
//	                                    between consecutive T1 reads of Wg —
//	                                    the per-read staleness that governs
//	                                    asynchronous SGD convergence
//	seasgd_hidden_read_hits_total       T1 served from the cached Wg
//	                                    (HideGlobalRead mode only)
//	seasgd_hidden_read_refreshes_total  cache refreshes by the update thread
//	seasgd_pushes_total                 ΔWx accumulations issued
//	seasgd_iterations_total             minibatch iterations completed
type Trainer struct {
	Registry *Registry
	Tracer   *Tracer

	phase      [NumPhases]*Histogram
	staleness  *Histogram
	hiddenHits *Counter
	hiddenRefr *Counter
	pushes     *Counter
	iterations *Counter
}

// NewTrainer registers the SEASGD metrics on reg and allocates a tracer
// ring of spanCapacity (0 picks a default sized for short diagnostic runs).
func NewTrainer(reg *Registry, spanCapacity int) *Trainer {
	if spanCapacity <= 0 {
		spanCapacity = 1 << 16
	}
	t := &Trainer{
		Registry: reg,
		Tracer:   NewTracer(spanCapacity),
	}
	for p := 0; p < NumPhases; p++ {
		t.phase[p] = reg.Histogram(
			fmt.Sprintf("seasgd_phase_seconds{phase=%q}", Phase(p).String()),
			"time spent per SEASGD phase (paper Fig. 6 labels)",
			DefLatencyBuckets)
	}
	t.staleness = reg.Histogram("seasgd_t1_staleness_iterations",
		"remote worker iterations completed between consecutive T1 reads of Wg",
		[]float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	t.hiddenHits = reg.Counter("seasgd_hidden_read_hits_total",
		"T1 reads served from the cached global weight (HideGlobalRead mode)")
	t.hiddenRefr = reg.Counter("seasgd_hidden_read_refreshes_total",
		"cached-global refreshes performed by the update thread")
	t.pushes = reg.Counter("seasgd_pushes_total",
		"global-weight accumulations issued (T.A3)")
	t.iterations = reg.Counter("seasgd_iterations_total",
		"minibatch iterations completed across workers")
	return t
}

// NameWorker labels worker rank's two tracks in the trace.
func (t *Trainer) NameWorker(rank int) {
	if t == nil {
		return
	}
	t.Tracer.NameThread(MainTID(rank), fmt.Sprintf("worker %d main", rank))
	t.Tracer.NameThread(UpdateTID(rank), fmt.Sprintf("worker %d update", rank))
}

// Begin opens a span for phase p on track tid; the duration also feeds the
// phase histogram on End. Allocation-free; safe on a nil Trainer.
func (t *Trainer) Begin(tid int32, p Phase) Span {
	if t == nil {
		return Span{}
	}
	s := t.Tracer.Begin(tid, p)
	s.hist = t.phase[p]
	return s
}

// BeginTraced opens a span like Begin but carrying a cross-process trace
// context (zero tc behaves exactly like Begin). The worker push path uses it
// to root each push's trace at the T.A3 span so the server-side spans join
// the worker's timeline as children.
func (t *Trainer) BeginTraced(tid int32, p Phase, tc TraceContext) Span {
	if t == nil {
		return Span{}
	}
	s := t.Tracer.BeginTraced(tid, p, tc)
	s.hist = t.phase[p]
	return s
}

// ObserveStaleness records one T1 read's staleness in iterations.
func (t *Trainer) ObserveStaleness(iters int64) {
	if t == nil {
		return
	}
	t.staleness.Observe(float64(iters))
}

// HiddenHit counts a T1 read served from the cached global weight.
func (t *Trainer) HiddenHit() {
	if t == nil {
		return
	}
	t.hiddenHits.Inc()
}

// HiddenRefresh counts an update-thread refresh of the cached global.
func (t *Trainer) HiddenRefresh() {
	if t == nil {
		return
	}
	t.hiddenRefr.Inc()
}

// IncPush counts one ΔWx accumulation.
func (t *Trainer) IncPush() {
	if t == nil {
		return
	}
	t.pushes.Inc()
}

// IncIteration counts one completed minibatch iteration.
func (t *Trainer) IncIteration() {
	if t == nil {
		return
	}
	t.iterations.Inc()
}
