package core

import (
	"fmt"
	"runtime"
	"time"

	"shmcaffe/internal/dataset"
	"shmcaffe/internal/nn"
	"shmcaffe/internal/smb"
	"shmcaffe/internal/telemetry"
)

// WorkerConfig configures one SEASGD worker (one "deep learning worker" of
// the paper, training a model replica).
type WorkerConfig struct {
	// Job names the SMB segment family shared by all workers of this run.
	Job string
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
	// LivenessTimeout enables crash-aware termination alignment: each
	// worker heartbeats through the control segment, and a peer whose beat
	// has not advanced for longer than this is treated as dead by the
	// termination predicate (see ShouldStopAlive). Zero disables liveness
	// tracking — the paper's fault-free protocol, byte-for-byte.
	LivenessTimeout time.Duration
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
	if c.Client == nil || c.Net == nil || c.Loader == nil {
		return fmt.Errorf("worker needs client, net and loader: %w", ErrConfig)
	}
	return validateRun(c.Job, c.MaxIterations, c.Elastic, c.Solver, c.Termination)
}

// validateRun checks the fields every SEASGD driver (Worker, HybridGroup)
// configures the same way.
func validateRun(job string, maxIterations int, elastic ElasticConfig, solver nn.SolverConfig, termination TerminationPolicy) error {
	if job == "" {
		return fmt.Errorf("job name missing: %w", ErrConfig)
	}
	if maxIterations < 1 {
		return fmt.Errorf("max iterations %d < 1: %w", maxIterations, ErrConfig)
	}
	if err := elastic.Validate(); err != nil {
		return err
	}
	if err := solver.Validate(); err != nil {
		return err
	}
	return termination.Validate()
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
	// Pushes counts global-weight accumulations issued (T.A3).
	Pushes int
	// StoppedBy records which condition ended training.
	StoppedBy string
	// DeadPeers lists the ranks this worker considered dead when it
	// stopped (liveness tracking enabled only).
	DeadPeers []int
}

// Worker runs SEASGD training for one rank. Create with NewWorkerPolling, then
// call Run once. The Fig. 6 exchange and the termination protocol live in
// its exchange engine; the worker owns the local solver, the timing split
// and the Hook.
type Worker struct {
	cfg     WorkerConfig
	buffers *JobBuffers
	solver  *nn.SGDSolver
	ex      *exchange
}

// NewWorkerPolling validates cfg and bootstraps rank of a world-rank job
// on the SMB server (SetupBuffersPolling, Fig. 2). Every rank of the job
// must call it, concurrently or from separate processes; rank 0's current
// replica weights seed Wg.
func NewWorkerPolling(cfg WorkerConfig, rank, world int, opts BootstrapOptions) (*Worker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var seed []float32
	if rank == 0 {
		seed = cfg.Net.FlatWeights(nil)
	}
	buffers, err := SetupBuffersPolling(cfg.Client, cfg.Job, rank, world, cfg.Net.NumParams(), seed, opts)
	if err != nil {
		return nil, fmt.Errorf("rank %d setup: %w", rank, err)
	}
	cfg.Telemetry.NameWorker(rank)
	ex := newExchange(buffers, cfg.Elastic, cfg.Termination, cfg.MaxIterations,
		cfg.LivenessTimeout, cfg.Telemetry)
	ex.disableOverlap, ex.hideGlobalRead = cfg.DisableOverlap, cfg.HideGlobalRead
	return &Worker{
		cfg:     cfg,
		buffers: buffers,
		solver:  nn.NewSGDSolver(cfg.Net, cfg.Solver),
		ex:      ex,
	}, nil
}

// Buffers exposes the worker's SMB view (used by tests and diagnostics).
func (w *Worker) Buffers() *JobBuffers { return w.buffers }

// Run executes the SEASGD training loop (Fig. 6) until the termination
// criterion fires. It must be called exactly once.
func (w *Worker) Run() (stats *RunStats, err error) {
	cfg := &w.cfg
	rank := w.buffers.Rank()
	ex := w.ex
	stats = &RunStats{Rank: rank}
	tel := cfg.Telemetry
	mainTID := telemetry.MainTID(rank)

	defer func() { ex.shutdown(err) }()
	if err := ex.start(cfg.Net.Weights()); err != nil {
		return nil, err
	}

	hardCap := cfg.MaxIterations * 100
	stats.StoppedBy = "budget"
	iter := 0
	for iter < hardCap {
		if ex.due(iter) {
			blocked, exposed, err := ex.step(cfg.Net.Weights())
			if err != nil {
				return nil, fmt.Errorf("rank %d iter %d: %w", rank, iter, err)
			}
			stats.BlockedTime += blocked
			stats.ExposedCommTime += exposed
		}

		// T4 + T5: train one minibatch and apply the gradient (Eq. 2).
		tc0 := time.Now()
		spT45 := tel.Begin(mainTID, telemetry.PhaseT45)
		batch := cfg.Loader.Next()
		loss, err := w.solver.Step(batch.X, batch.Labels)
		spT45.End()
		if err != nil {
			return nil, fmt.Errorf("rank %d iter %d train: %w", rank, iter, err)
		}
		stats.CompTime += time.Since(tc0)
		stats.LossHistory = append(stats.LossHistory, loss)
		tel.IncIteration()

		if err := ex.asyncErr(); err != nil {
			return nil, fmt.Errorf("rank %d %w", rank, err)
		}
		if cfg.Hook != nil {
			if err := cfg.Hook(w, iter); err != nil {
				return nil, fmt.Errorf("rank %d hook: %w", rank, err)
			}
		}

		// Progress sharing and termination alignment (Sec. III-E).
		iter++
		stop, by, err := ex.finishIteration(int64(iter))
		if err != nil {
			return nil, err
		}
		if stop {
			stats.StoppedBy = by
			break
		}

		// On real hardware each worker owns a GPU and progresses at a
		// similar rate; on an oversubscribed CPU host the Go scheduler
		// can let one worker run thousands of iterations per quantum.
		// Yield so the alignment protocol sees comparable progress.
		runtime.Gosched()
	}

	stats.Iterations = iter
	if stats.Pushes, stats.DeadPeers, err = ex.finish(); err != nil {
		return nil, fmt.Errorf("rank %d %w", rank, err)
	}
	return stats, nil
}
