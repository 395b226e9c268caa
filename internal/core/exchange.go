package core

import (
	"fmt"
	"sync"
	"time"

	"shmcaffe/internal/nn"
	"shmcaffe/internal/telemetry"
)

// exchange is the one spelling of how a SEASGD participant exchanges with
// the SMB server and decides to stop: the Fig. 6 procedure (T.A5 → T1 → T2
// → T3 on the caller's thread, T.A1–T.A4 on the update thread, mutually
// exclusive under one lock) and the Sec. III-E termination protocol. A
// Worker drives one with its own replica; a HybridGroup's root member drives
// one on the group's behalf (Sec. III-D: the root "runs SEASGD"). Apart from
// the update thread and the read-only due, every method is called from the
// one goroutine that drives the exchange.
type exchange struct {
	buffers       *JobBuffers
	rank          int
	elastic       ElasticConfig
	termination   TerminationPolicy
	stoppedBy     string // termination.String(), resolved once
	maxIterations int64
	tel           *telemetry.Trainer
	mainTID       int32
	updateTID     int32
	// Worker-only ablations, set by newWorkerFromBuffers before start (a
	// group leaves them zero): push inline on the caller's track; serve T2
	// from cachedGlobal, refreshed in T.A4.
	disableOverlap bool
	hideGlobalRead bool

	// mu is the Fig. 6 lock making T1+T2 and T.A1–T.A4 mutually exclusive.
	mu           sync.Mutex
	pendingDelta []float32 // guarded by mu
	cachedGlobal []float32 // hideGlobalRead only: last Wg seen; guarded by mu
	pushErr      error     // first push failure; guarded by mu
	pushes       int       // guarded by mu

	// Caller-thread scratch: control holds one read of the control segment
	// (progress | stop flag | heartbeats), lastProgress the counters seen at
	// the previous T1 read (staleness probe, telemetry only).
	control      []int64
	lastProgress []int64
	liveness     *livenessTracker // nil unless livenessTimeout > 0

	// wake carries one pending push; capacity 1 so a second wake while a
	// push is in flight blocks the caller — the T.A5 back-pressure.
	wake     chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

func newExchange(buffers *JobBuffers, elastic ElasticConfig, termination TerminationPolicy,
	maxIterations int, livenessTimeout time.Duration, tel *telemetry.Trainer) *exchange {

	n := buffers.WorldSize()
	slots := n + 1 // progress + stop flag; the heartbeat block only if tracked
	if livenessTimeout > 0 {
		slots = ControlSegmentSlots(n)
	}
	e := &exchange{
		buffers:       buffers,
		rank:          buffers.Rank(),
		elastic:       elastic,
		termination:   termination,
		stoppedBy:     termination.String(),
		maxIterations: int64(maxIterations),
		tel:           tel,
		mainTID:       telemetry.MainTID(buffers.Rank()),
		updateTID:     telemetry.UpdateTID(buffers.Rank()),
		pendingDelta:  make([]float32, buffers.Elems()),
		control:       make([]int64, slots),
		lastProgress:  make([]int64, n),
		wake:          make(chan struct{}, 1),
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
	}
	if livenessTimeout > 0 {
		e.liveness = newLivenessTracker(e.rank, n, livenessTimeout, nil)
	}
	return e
}

// start spawns the update thread and reads the job's initial Wg into global
// — every replica begins at the weights the master seeded, and so does the
// hidden-read cache. The caller must already have deferred shutdown, which
// joins the thread whatever start returns.
func (e *exchange) start(global []float32) error {
	if e.disableOverlap {
		close(e.done)
	} else {
		go e.updateThread()
	}
	if err := e.buffers.ReadGlobal(global); err != nil {
		return err
	}
	if e.hideGlobalRead {
		e.mu.Lock()
		e.cachedGlobal = append([]float32(nil), global...)
		e.mu.Unlock()
	}
	return nil
}

// shutdown stops the update thread after it has drained a queued push, and
// leaves an obituary when the run failed with liveness on: peers see the
// tombstone at their next check instead of burning a liveness timeout.
// Best-effort — a participant dying because the server is unreachable cannot
// write it, which is exactly the case staleness covers. Idempotent.
func (e *exchange) shutdown(runErr error) {
	e.stopOnce.Do(func() { close(e.stop) })
	<-e.done
	if runErr != nil && e.liveness != nil {
		_ = e.buffers.MarkDead()
	}
}

// due reports whether iteration iter (0-based) exchanges with the server.
func (e *exchange) due(iter int) bool { return iter%e.elastic.UpdateInterval == 0 }

// step is one exchange on the caller's thread: T.A5 wait for the previous
// push, T1 read Wg into global, T2 fold it into net's weights through local
// (Eqs. 5+6, fused into one sweep that writes the increment straight into
// pendingDelta), T3 hand the increment to the update thread. blocked is the
// T.A5 stall; exposed is T1+T2, plus the push itself when it runs inline.
//
//shm:hotpath
func (e *exchange) step(net *nn.Network, local, global []float32) (blocked, exposed time.Duration, err error) {
	tel := e.tel
	t0 := time.Now()
	spA5 := tel.Begin(e.mainTID, telemetry.PhaseTA5)
	e.mu.Lock()
	spA5.End()
	tLocked := time.Now()
	// Hidden-read mode serves T2 straight from cachedGlobal (we hold mu; the
	// fused step only reads it), so even the staging copy is gone.
	spT1 := tel.Begin(e.mainTID, telemetry.PhaseT1)
	wg := global
	if e.hideGlobalRead {
		wg = e.cachedGlobal
		tel.HiddenHit()
	} else {
		err = e.buffers.ReadGlobal(global)
	}
	e.observeStaleness()
	spT1.End()
	if err == nil {
		spT2 := tel.Begin(e.mainTID, telemetry.PhaseT2)
		net.FlatWeights(local)
		err = FusedWeightStep(e.pendingDelta, local, wg, e.elastic.MovingRate)
		if err == nil {
			err = net.SetFlatWeights(local)
		}
		spT2.End()
	}
	e.mu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	tFolded := time.Now()
	blocked, exposed = tLocked.Sub(t0), tFolded.Sub(tLocked)

	if !e.disableOverlap {
		// A failed push ends the update thread, possibly after asyncErr was
		// last polled clean: without the done arm a full wake channel would
		// park the caller forever.
		select {
		case e.wake <- struct{}{}:
			return blocked, exposed, nil
		case <-e.done:
			return 0, 0, e.asyncErr()
		}
	}
	// The ablation pushes inline, so its spans land on the main track —
	// rendering the lost overlap visibly in the trace.
	if err := e.push(e.mainTID); err != nil {
		return 0, 0, fmt.Errorf("push: %w", err)
	}
	return blocked, exposed + time.Since(tFolded), nil
}

// observeStaleness records how many iterations the other participants
// completed since this one's previous T1 read — the per-read staleness bound
// that governs asynchronous SEASGD convergence. Telemetry off or a probe
// failure records nothing (the probe must never fail training).
func (e *exchange) observeStaleness() {
	if e.tel == nil {
		return
	}
	now := e.control[:len(e.lastProgress)]
	if err := e.buffers.ProgressInto(now); err != nil {
		return
	}
	var stale int64
	for y, p := range now {
		if d := p - e.lastProgress[y]; y != e.rank && d > 0 {
			stale += d
		}
	}
	e.tel.ObserveStaleness(stale)
	copy(e.lastProgress, now)
}

// push sends the pending increment under the lock, recording T.A1–T.A4 on
// track tid, and latches the first failure for asyncErr.
//
//shm:hotpath
func (e *exchange) push(tid int32) error {
	tel := e.tel
	spA1 := tel.Begin(tid, telemetry.PhaseTA1)
	e.mu.Lock()
	spA1.End()
	err := e.buffers.pushTraced(tel, tid, e.pushes, e.pendingDelta)
	if err == nil {
		// T.A4: bookkeeping tail (and the cached-Wg refresh in hidden-read
		// mode — done here precisely because this phase is off the critical
		// path).
		spA4 := tel.Begin(tid, telemetry.PhaseTA4)
		e.pushes++
		tel.IncPush()
		if e.hideGlobalRead {
			err = e.buffers.ReadGlobal(e.cachedGlobal)
			tel.HiddenRefresh()
		}
		spA4.End()
	}
	if err != nil && e.pushErr == nil {
		e.pushErr = err
	}
	e.mu.Unlock()
	return err
}

// updateThread is the Fig. 6 update thread: blocked until woken (T3), then
// T.A1 store increment, T.A2 request accumulation, T.A4 release, repeat. A
// failed push ends it; asyncErr surfaces the failure to the caller.
func (e *exchange) updateThread() {
	defer close(e.done)
	for {
		select {
		case <-e.wake:
			if e.push(e.updateTID) != nil {
				return
			}
		case <-e.stop:
			// Drain a queued wake so the final increment of the run is not
			// silently dropped.
			select {
			case <-e.wake:
				_ = e.push(e.updateTID) // latched for finish
			default:
			}
			return
		}
	}
}

// asyncErr reports the first push failure, once one has happened; the
// drivers poll it every iteration because a dead update thread takes no more
// wakes.
func (e *exchange) asyncErr() error {
	e.mu.Lock()
	err := e.pushErr
	e.mu.Unlock()
	if err != nil {
		return fmt.Errorf("update thread: %w", err)
	}
	return nil
}

// finishIteration shares this participant's progress (and heartbeat) and
// evaluates the Sec. III-E alignment criterion after completed iterations.
// The whole shared state — progress, stop flag, heartbeats — comes from ONE
// read of the control segment, and the heartbeats are observed before the
// flag is honoured: a participant stopped by a peer's flag still knows every
// death that preceded it. StopIndependently never reads the segment.
//
//shm:hotpath
func (e *exchange) finishIteration(completed int64) (stop bool, by string, err error) {
	if err := e.buffers.ReportProgress(completed); err != nil {
		return false, "", err
	}
	if e.liveness != nil {
		// Best-effort: ReportProgress just proved the path works; a lost
		// beat only delays peers' staleness clocks.
		_ = e.buffers.Beat(completed)
	}
	if e.termination == StopIndependently {
		return completed >= e.maxIterations, "budget", nil
	}
	progress, flagged, beats, err := e.buffers.readControl(e.control)
	if err != nil {
		return false, "", err
	}
	// Liveness view: exclude dead peers from the predicate so a crashed
	// participant's frozen counter cannot hold the survivors hostage.
	var alive []bool
	if e.liveness != nil {
		alive = e.liveness.observe(beats)
	}
	if flagged {
		return true, "flag", nil
	}
	if !e.termination.ShouldStopAlive(progress, alive, e.maxIterations) {
		return false, "", nil
	}
	// Raise the flag so stragglers stop at their next check even if their
	// own predicate evaluation lags.
	if err := e.buffers.SignalStop(); err != nil {
		return false, "", err
	}
	return true, e.stoppedBy, nil
}

// finish joins the update thread (including any queued final push, so the
// count is exact) and reports the run's push count and the ranks considered
// dead at exit.
func (e *exchange) finish() (pushes int, dead []int, err error) {
	e.shutdown(nil)
	if err := e.asyncErr(); err != nil {
		return 0, nil, err
	}
	if e.liveness != nil {
		dead = e.liveness.deadRanks(nil)
	}
	e.mu.Lock()
	pushes = e.pushes
	e.mu.Unlock()
	return pushes, dead, nil
}
