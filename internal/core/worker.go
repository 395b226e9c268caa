package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"shmcaffe/internal/dataset"
	"shmcaffe/internal/mpi"
	"shmcaffe/internal/nn"
	"shmcaffe/internal/smb"
	"shmcaffe/internal/telemetry"
)

// WorkerConfig configures one SEASGD worker (one "deep learning worker" of
// the paper: an MPI process training a model replica).
type WorkerConfig struct {
	// Job names the SMB segment family shared by all workers of this run.
	Job string
	// Comm is this worker's MPI endpoint; rank 0 is the master worker.
	Comm *mpi.Comm
	// Client is the connection to the SMB server.
	Client smb.Client
	// Net is this worker's model replica.
	Net *nn.Network
	// Solver configures the local Caffe-style SGD (Eq. 2).
	Solver nn.SolverConfig
	// Elastic carries moving_rate and update_interval.
	Elastic ElasticConfig
	// Termination selects the end-time alignment criterion.
	Termination TerminationPolicy
	// MaxIterations is the per-worker iteration budget (the "specified
	// number of iterations" of Sec. III-E).
	MaxIterations int
	// Loader provides this worker's data shard.
	Loader *dataset.Loader

	// DisableOverlap pushes the global update inline instead of in the
	// update thread — the ablation of Fig. 6's communication hiding.
	DisableOverlap bool
	// HideGlobalRead serves T1 from a cached copy refreshed by the update
	// thread instead of a fresh read. The paper deliberately does NOT do
	// this ("the learning performance deteriorates due to the delayed
	// parameter problem"); the flag exists to measure that trade-off.
	HideGlobalRead bool
	// ProgressEvery is the number of iterations between termination
	// checks (default 1).
	ProgressEvery int
	// LivenessTimeout enables crash-aware termination alignment: each
	// worker heartbeats through the control segment, and a peer whose beat
	// has not advanced for longer than this is treated as dead by the
	// termination predicate (see ShouldStopAlive). Zero disables liveness
	// tracking — the paper's fault-free protocol, byte-for-byte.
	LivenessTimeout time.Duration
	// Now supplies time for the timing breakdown (defaults to time.Now).
	Now func() time.Time
	// Hook, if non-nil, runs after every completed iteration (0-based).
	// Experiment harnesses use it to snapshot accuracy curves. Returning
	// an error aborts training.
	Hook func(w *Worker, iter int) error
	// Telemetry, if non-nil, records the Fig. 6 phase spans, the per-read
	// T1 staleness, and the push/iteration counters. Nil disables all
	// recording at the cost of one branch per record.
	Telemetry *telemetry.Trainer
}

// Validate checks the configuration.
func (c *WorkerConfig) Validate() error {
	if c.Comm == nil {
		return fmt.Errorf("worker needs an MPI comm (or use NewWorkerPolling): %w", ErrConfig)
	}
	return c.validateCommon()
}

// validateCommon checks everything except the communicator.
func (c *WorkerConfig) validateCommon() error {
	if c.Client == nil || c.Net == nil || c.Loader == nil {
		return fmt.Errorf("worker needs client, net and loader: %w", ErrConfig)
	}
	if c.Job == "" {
		return fmt.Errorf("worker needs a job name: %w", ErrConfig)
	}
	if c.MaxIterations < 1 {
		return fmt.Errorf("max iterations %d < 1: %w", c.MaxIterations, ErrConfig)
	}
	if err := c.Elastic.Validate(); err != nil {
		return err
	}
	if err := c.Solver.Validate(); err != nil {
		return err
	}
	return c.Termination.Validate()
}

// RunStats reports one worker's training outcome, including the Eq. (8)
// timing decomposition measured over the run.
type RunStats struct {
	Rank       int
	Iterations int
	// LossHistory holds the minibatch loss of every iteration.
	LossHistory []float64
	// CompTime is ΣT_comp (forward+backward+local update, T4+T5).
	CompTime time.Duration
	// ExposedCommTime is Σ(T_rgw + T_ulw): the global read and local
	// elastic update that the design deliberately leaves on the critical
	// path (T1+T2).
	ExposedCommTime time.Duration
	// BlockedTime is the T.A5 stall: main thread waiting because the
	// update thread's push outlived the compute phase.
	BlockedTime time.Duration
	// Pushes counts global-weight accumulations issued (T.A2).
	Pushes int
	// StoppedBy records which condition ended training.
	StoppedBy string
	// DeadPeers lists the ranks this worker considered dead when it
	// stopped (liveness tracking enabled only).
	DeadPeers []int
}

// Worker runs SEASGD training for one rank. Create with NewWorker, then
// call Run once.
type Worker struct {
	cfg     WorkerConfig
	rank    int
	buffers *JobBuffers
	solver  *nn.SGDSolver

	// Exchange state shared between the main and update threads; mu is
	// the Fig. 6 lock making T1+T2 and T.A1–T.A4 mutually exclusive.
	mu           sync.Mutex
	pendingDelta []float32 // guarded by mu
	cachedGlobal []float32 // HideGlobalRead mode: last Wg seen; guarded by mu
	pushErr      error     // guarded by mu
	pushes       int       // guarded by mu

	// Staleness probe scratch (telemetry only): progress counters seen at
	// the previous and current T1 read. Used by the main thread under mu.
	lastProgress []int64
	progressNow  []int64

	// Liveness view (LivenessTimeout > 0 only); used by the main thread
	// during termination checks.
	liveness *livenessTracker
	beats    []int64
}

// NewWorker validates cfg and performs the collective buffer bootstrap
// (Fig. 2). All ranks of the communicator must call NewWorker concurrently.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ProgressEvery < 1 {
		cfg.ProgressEvery = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	elems := cfg.Net.NumParams()
	// Rank 0's current replica weights seed Wg.
	var seed []float32
	if cfg.Comm.Rank() == 0 {
		seed = cfg.Net.FlatWeights(nil)
	}
	buffers, err := SetupBuffers(cfg.Comm, cfg.Client, cfg.Job, elems, seed)
	if err != nil {
		return nil, fmt.Errorf("rank %d setup: %w", cfg.Comm.Rank(), err)
	}
	cfg.Telemetry.NameWorker(cfg.Comm.Rank())
	return newWorkerFromBuffers(cfg, cfg.Comm.Rank(), buffers), nil
}

// newWorkerFromBuffers finishes construction once the buffer bootstrap
// (MPI-collective or polling) has produced the JobBuffers.
func newWorkerFromBuffers(cfg WorkerConfig, rank int, buffers *JobBuffers) *Worker {
	elems := buffers.Elems()
	w := &Worker{
		cfg:          cfg,
		rank:         rank,
		buffers:      buffers,
		solver:       nn.NewSGDSolver(cfg.Net, cfg.Solver),
		pendingDelta: make([]float32, elems),
		cachedGlobal: make([]float32, elems),
		lastProgress: make([]int64, buffers.WorldSize()),
		progressNow:  make([]int64, buffers.WorldSize()),
	}
	if cfg.LivenessTimeout > 0 {
		w.liveness = newLivenessTracker(rank, buffers.WorldSize(), cfg.LivenessTimeout, cfg.Now)
		w.beats = make([]int64, buffers.WorldSize())
	}
	return w
}

// Buffers exposes the worker's SMB view (used by tests and diagnostics).
func (w *Worker) Buffers() *JobBuffers { return w.buffers }

// Run executes the SEASGD training loop (Fig. 6) until the termination
// criterion fires. It must be called exactly once.
func (w *Worker) Run() (stats *RunStats, err error) {
	if w.liveness != nil {
		// Obituary on the way out of a failed run: peers see the tombstone
		// at their next check instead of burning a liveness timeout.
		// Best-effort — a worker dying because the server is unreachable
		// cannot write it, which is exactly the case staleness covers.
		defer func() {
			if err != nil {
				w.buffers.MarkDead()
			}
		}()
	}
	cfg := &w.cfg
	rank := w.rank
	stats = &RunStats{Rank: rank}
	elems := w.buffers.Elems()
	tel := cfg.Telemetry
	mainTID := telemetry.MainTID(rank)

	local := make([]float32, elems)
	global := make([]float32, elems)

	// Start from the shared initial weights so every replica of the job
	// begins at Wg (the master seeded it).
	if err := w.buffers.ReadGlobal(global); err != nil {
		return nil, err
	}
	if err := cfg.Net.SetFlatWeights(global); err != nil {
		return nil, err
	}
	copy(w.cachedGlobal, global)

	// Spawn the update thread (Fig. 6). wake carries one pending push;
	// capacity 1 so a second wake while a push is in flight blocks the
	// main thread — the T.A5 back-pressure.
	wake := make(chan struct{}, 1)
	stop := make(chan struct{})
	done := make(chan struct{})
	if !cfg.DisableOverlap {
		go w.updateThread(wake, stop, done)
	} else {
		close(done)
	}
	var stopOnce sync.Once
	shutdown := func() {
		stopOnce.Do(func() { close(stop) })
		<-done
	}
	defer shutdown()

	hardCap := cfg.MaxIterations * 100
	stoppedBy := "budget"
	iter := 0
loop:
	for ; iter < hardCap; iter++ {
		if iter%cfg.Elastic.UpdateInterval == 0 {
			// T.A5: the main thread blocks here whenever the update
			// thread's previous push outlived the compute phase.
			t0 := cfg.Now()
			spA5 := tel.Begin(mainTID, telemetry.PhaseTA5)
			w.mu.Lock()
			spA5.End()
			tLocked := cfg.Now()
			// T1: obtain the global weight. Hidden-read mode serves T2
			// straight from cachedGlobal (we hold mu; the fused step only
			// reads it), so even the staging copy is gone.
			spT1 := tel.Begin(mainTID, telemetry.PhaseT1)
			var readErr error
			wg := global
			if cfg.HideGlobalRead {
				wg = w.cachedGlobal
				tel.HiddenHit()
			} else {
				readErr = w.buffers.ReadGlobal(global)
			}
			w.observeStaleness()
			spT1.End()
			if readErr != nil {
				w.mu.Unlock()
				return nil, fmt.Errorf("rank %d iter %d: %w", rank, iter, readErr)
			}
			// T2: elastic update of the local weight, Eqs. (5)+(6), fused
			// into one sweep that writes the increment directly into
			// pendingDelta — the former per-exchange handoff copy to the
			// update thread is gone.
			spT2 := tel.Begin(mainTID, telemetry.PhaseT2)
			cfg.Net.FlatWeights(local)
			t2err := FusedWeightStep(w.pendingDelta, local, wg, cfg.Elastic.MovingRate)
			if t2err == nil {
				t2err = cfg.Net.SetFlatWeights(local)
			}
			spT2.End()
			if t2err != nil {
				w.mu.Unlock()
				return nil, t2err
			}
			w.mu.Unlock()
			t1 := cfg.Now()
			stats.BlockedTime += tLocked.Sub(t0)
			stats.ExposedCommTime += t1.Sub(tLocked)

			// T3: hand the increment to the update thread — or push
			// inline in the no-overlap ablation.
			if cfg.DisableOverlap {
				tp0 := cfg.Now()
				// The push runs inline on the main thread in this
				// ablation, so its spans land on the main track —
				// rendering the lost overlap visibly in the trace.
				if err := w.pushPending(mainTID); err != nil {
					return nil, fmt.Errorf("rank %d iter %d push: %w", rank, iter, err)
				}
				stats.ExposedCommTime += cfg.Now().Sub(tp0)
			} else {
				wake <- struct{}{}
			}
		}

		// T4 + T5: train one minibatch and apply the gradient (Eq. 2).
		tc0 := cfg.Now()
		spT45 := tel.Begin(mainTID, telemetry.PhaseT45)
		batch := cfg.Loader.Next()
		loss, err := w.solver.Step(batch.X, batch.Labels)
		spT45.End()
		if err != nil {
			return nil, fmt.Errorf("rank %d iter %d train: %w", rank, iter, err)
		}
		stats.CompTime += cfg.Now().Sub(tc0)
		stats.LossHistory = append(stats.LossHistory, loss)
		tel.IncIteration()

		// Check for an asynchronous push failure.
		w.mu.Lock()
		pushErr := w.pushErr
		w.mu.Unlock()
		if pushErr != nil {
			return nil, fmt.Errorf("rank %d update thread: %w", rank, pushErr)
		}

		if cfg.Hook != nil {
			if err := cfg.Hook(w, iter); err != nil {
				return nil, fmt.Errorf("rank %d hook: %w", rank, err)
			}
		}

		// Progress sharing and termination alignment (Sec. III-E).
		completed := int64(iter + 1)
		if err := w.buffers.ReportProgress(completed); err != nil {
			return nil, err
		}
		if w.liveness != nil {
			// Heartbeat rides the same cadence as progress. Best-effort:
			// the ReportProgress just above already surfaced any genuine
			// transport failure.
			w.buffers.Beat(completed)
		}
		if (iter+1)%cfg.ProgressEvery == 0 || iter+1 >= cfg.MaxIterations {
			stopNow, by, err := w.checkTermination(completed)
			if err != nil {
				return nil, err
			}
			if stopNow {
				stoppedBy = by
				iter++
				break loop
			}
		}

		// On real hardware each worker owns a GPU and progresses at a
		// similar rate; on an oversubscribed CPU host the Go scheduler
		// can let one worker run thousands of iterations per quantum.
		// Yield so the alignment protocol sees comparable progress.
		runtime.Gosched()
	}

	stats.Iterations = iter
	stats.StoppedBy = stoppedBy
	if w.liveness != nil {
		stats.DeadPeers = w.liveness.deadRanks(nil)
	}
	// Finish the update thread (including any queued final push) before
	// reading the push counter, so the count is exact.
	shutdown()
	w.mu.Lock()
	stats.Pushes = w.pushes
	pushErr := w.pushErr
	w.mu.Unlock()
	if pushErr != nil {
		return nil, fmt.Errorf("rank %d update thread: %w", rank, pushErr)
	}
	return stats, nil
}

// checkTermination evaluates the alignment criterion.
func (w *Worker) checkTermination(completed int64) (bool, string, error) {
	cfg := &w.cfg
	if cfg.Termination == StopIndependently {
		if completed >= int64(cfg.MaxIterations) {
			return true, "budget", nil
		}
		return false, "", nil
	}
	// A raised stop flag overrides everything.
	if stop, err := w.buffers.StopRequested(); err != nil {
		return false, "", err
	} else if stop {
		return true, "flag", nil
	}
	progress, err := w.buffers.Progress()
	if err != nil {
		return false, "", err
	}
	// Liveness view: exclude dead peers from the predicate so a crashed
	// worker's frozen counter cannot hold the survivors hostage. A failed
	// heartbeat read keeps the previous view (stale but safe: death is
	// monotone, so the view can only lag, never flap back to alive).
	var alive []bool
	if w.liveness != nil {
		if err := w.buffers.HeartbeatsInto(w.beats); err == nil {
			alive = w.liveness.observe(w.beats)
		} else {
			alive = w.liveness.alive
		}
	}
	if cfg.Termination.ShouldStopAlive(progress, alive, int64(cfg.MaxIterations)) {
		// Raise the flag so stragglers stop at their next check even if
		// their own predicate evaluation lags.
		if err := w.buffers.SignalStop(); err != nil {
			return false, "", err
		}
		return true, cfg.Termination.String(), nil
	}
	return false, "", nil
}

// observeStaleness records how many iterations the other workers completed
// since this worker's previous T1 read — the per-read staleness bound that
// governs asynchronous SEASGD convergence. Caller holds w.mu. Telemetry off
// or a probe failure records nothing (the probe must never fail training).
func (w *Worker) observeStaleness() {
	tel := w.cfg.Telemetry
	if tel == nil {
		return
	}
	if err := w.buffers.ProgressInto(w.progressNow); err != nil {
		return
	}
	var stale int64
	for y, now := range w.progressNow {
		if y == w.rank {
			continue
		}
		if d := now - w.lastProgress[y]; d > 0 {
			stale += d
		}
	}
	tel.ObserveStaleness(stale)
	copy(w.lastProgress, w.progressNow)
}

// pushPending sends the pending increment to the server under the lock,
// recording the T.A1–T.A4 spans on track tid (the update thread normally;
// the main track in the DisableOverlap ablation).
func (w *Worker) pushPending(tid int32) error {
	tel := w.cfg.Telemetry
	// T.A1: acquire the exchange lock.
	spA1 := tel.Begin(tid, telemetry.PhaseTA1)
	w.mu.Lock()
	spA1.End()
	defer w.mu.Unlock()
	if err := w.buffers.pushTraced(tel, tid, w.pushes, w.pendingDelta); err != nil {
		return err
	}
	// T.A4: bookkeeping tail (and the cached-Wg refresh in hidden-read
	// mode — done here precisely because this phase is off the critical
	// path).
	spA4 := tel.Begin(tid, telemetry.PhaseTA4)
	w.pushes++
	tel.IncPush()
	var err error
	if w.cfg.HideGlobalRead {
		err = w.buffers.ReadGlobal(w.cachedGlobal)
		tel.HiddenRefresh()
	}
	spA4.End()
	return err
}

// updateThread is the Fig. 6 update thread: blocked until woken (T3), then
// T.A1 store increment, T.A2 request accumulation, T.A4 release, repeat.
func (w *Worker) updateThread(wake <-chan struct{}, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tid := telemetry.UpdateTID(w.rank)
	for {
		select {
		case <-wake:
			if err := w.pushPending(tid); err != nil {
				w.mu.Lock()
				if w.pushErr == nil {
					w.pushErr = err
				}
				w.mu.Unlock()
				return
			}
		case <-stop:
			// Drain a queued wake so the final increment of the run is
			// not silently dropped.
			select {
			case <-wake:
				if err := w.pushPending(tid); err != nil {
					w.mu.Lock()
					if w.pushErr == nil {
						w.pushErr = err
					}
					w.mu.Unlock()
				}
			default:
			}
			return
		}
	}
}
