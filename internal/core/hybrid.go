package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"shmcaffe/internal/dataset"
	"shmcaffe/internal/mpi"
	"shmcaffe/internal/nccl"
	"shmcaffe/internal/nn"
	"shmcaffe/internal/smb"
	"shmcaffe/internal/telemetry"
)

// HybridGroupConfig configures one HSGD worker group (paper Sec. III-D):
// the set of workers sharing a node. Within the group, gradients are
// aggregated synchronously (ncclAllReduce); across groups, the group root
// runs SEASGD against the SMB server and broadcasts the refreshed weight to
// its members (Fig. 4).
type HybridGroupConfig struct {
	// Job names the SMB segment family (shared across groups).
	Job string
	// Comm is the root's MPI endpoint. The SMB world has one rank per
	// group; rank 0's group is the Master Worker Group of Fig. 4.
	Comm *mpi.Comm
	// Client connects to the SMB server (used by the root only).
	Client smb.Client
	// Nets holds one model replica per group member; Nets[0] is the root.
	Nets []*nn.Network
	// Loaders provides each member's data shard.
	Loaders []*dataset.Loader
	// Solver configures the local SGD.
	Solver nn.SolverConfig
	// Elastic carries moving_rate and update_interval for the root's
	// inter-group SEASGD exchange.
	Elastic ElasticConfig
	// Termination aligns end times across groups.
	Termination TerminationPolicy
	// MaxIterations is the per-group iteration budget.
	MaxIterations int
	// Hook, if non-nil, runs on the root member after every completed
	// group iteration. Returning an error aborts training.
	Hook func(g *HybridGroup, iter int) error
	// Telemetry, if non-nil, records the root's Fig. 6 phase spans and
	// counters (tracks are per group: the SMB world has one rank per group).
	Telemetry *telemetry.Trainer
	// LivenessTimeout, when positive, enables crash-aware termination for
	// the inter-group protocol: the root publishes heartbeats alongside its
	// progress counter and excludes group roots whose beats have gone stale
	// (or that wrote a tombstone) from the termination criterion. Zero keeps
	// the paper's fault-free protocol.
	LivenessTimeout time.Duration
}

// Validate checks the configuration.
func (c *HybridGroupConfig) Validate() error {
	if c.Comm == nil || c.Client == nil {
		return fmt.Errorf("hybrid group needs comm and client: %w", ErrConfig)
	}
	if len(c.Nets) == 0 || len(c.Nets) != len(c.Loaders) {
		return fmt.Errorf("hybrid group has %d nets and %d loaders: %w",
			len(c.Nets), len(c.Loaders), ErrConfig)
	}
	return validateRun(c.Job, c.MaxIterations, c.Elastic, c.Solver, c.Termination)
}

// GroupStats aggregates the outcome of one hybrid group.
type GroupStats struct {
	// GroupRank is the root's rank in the inter-group SMB world.
	GroupRank int
	// Iterations is the number of synchronous group iterations executed.
	Iterations int
	// RootLossHistory is the root member's minibatch loss per iteration
	// (after gradient averaging all members see the same loss trend).
	RootLossHistory []float64
	// Pushes counts the root's SMB accumulations.
	Pushes int
	// StoppedBy records what ended training.
	StoppedBy string
	// FailedMembers lists intra-group member indices whose training loop
	// failed mid-run; the group shrank past them and the survivors carried
	// the group to completion.
	FailedMembers []int
	// DeadPeers lists the inter-group SMB ranks considered dead at exit
	// (empty unless LivenessTimeout was set).
	DeadPeers []int
}

// HybridGroup runs HSGD for one worker group. All groups of a job must be
// constructed concurrently (the bootstrap is collective over Comm's world).
// The root member drives the group's exchange engine — the same Fig. 6
// procedure and termination protocol a Worker runs; the group owns the
// member goroutines, the all-reduce, the broadcast and the shrink past a
// failed member.
type HybridGroup struct {
	cfg     HybridGroupConfig
	buffers *JobBuffers
	group   *nccl.Group
	ex      *exchange // driven by the root member only
}

// NewHybridGroup validates cfg, initializes the intra-node NCCL group, and
// performs the collective SMB bootstrap with the other group roots.
func NewHybridGroup(cfg HybridGroupConfig) (*HybridGroup, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	elems := cfg.Nets[0].NumParams()
	for i, net := range cfg.Nets {
		if net.NumParams() != elems {
			return nil, fmt.Errorf("member %d has %d params, root has %d: %w",
				i, net.NumParams(), elems, ErrConfig)
		}
	}
	group, err := nccl.NewGroup(len(cfg.Nets))
	if err != nil {
		return nil, err
	}
	var seed []float32
	if cfg.Comm.Rank() == 0 {
		seed = cfg.Nets[0].FlatWeights(nil)
	}
	buffers, err := SetupBuffers(cfg.Comm, cfg.Client, cfg.Job, elems, seed)
	if err != nil {
		return nil, fmt.Errorf("group %d setup: %w", cfg.Comm.Rank(), err)
	}
	cfg.Telemetry.NameWorker(cfg.Comm.Rank())
	return &HybridGroup{
		cfg:     cfg,
		buffers: buffers,
		group:   group,
		ex: newExchange(buffers, cfg.Elastic, cfg.Termination, cfg.MaxIterations,
			cfg.LivenessTimeout, cfg.Telemetry),
	}, nil
}

// Buffers exposes the group's SMB view (used by hooks and diagnostics).
func (g *HybridGroup) Buffers() *JobBuffers { return g.buffers }

// Run executes HSGD until the termination criterion fires, returning the
// group's stats. Member goroutines are managed internally. A failing
// non-root member does not kill the group: the NCCL ring shrinks past it
// and the survivors finish (the failure is recorded in FailedMembers). A
// failing root is fatal — it owns the SMB exchange — and, when liveness is
// enabled, leaves a tombstone so the other group roots stop waiting.
func (g *HybridGroup) Run() (stats *GroupStats, err error) {
	cfg := &g.cfg
	n := len(cfg.Nets)

	// All replicas start from the shared initial weights.
	initWeights := make([]float32, g.buffers.Elems())
	defer func() { g.ex.shutdown(err) }()
	if err := g.ex.start(initWeights); err != nil {
		return nil, err
	}
	for _, net := range cfg.Nets {
		if err := net.SetFlatWeights(initWeights); err != nil {
			return nil, err
		}
	}

	stats = &GroupStats{GroupRank: cfg.Comm.Rank()}
	var wg sync.WaitGroup
	errs := make([]error, n)

	solverFor := make([]*nn.SGDSolver, n)
	for m := 0; m < n; m++ {
		solverFor[m] = nn.NewSGDSolver(cfg.Nets[m], cfg.Solver)
	}

	hardCap := cfg.MaxIterations * 100
	for m := 0; m < n; m++ {
		m := m
		wg.Add(1)
		go func() {
			defer wg.Done()
			memberErr := g.runMember(m, solverFor[m], hardCap, stats)
			if memberErr == nil {
				return
			}
			errs[m] = memberErr
			if m == 0 {
				// The root owns the SMB exchange and the termination
				// broadcast; without it the group is dead. Abort so
				// siblings unwind from their barriers.
				g.group.Abort()
				return
			}
			// A non-root member is expendable: shrink the NCCL ring past
			// it so in-flight collectives retry among the survivors
			// instead of deadlocking at the barrier. Safe because the
			// member goroutine has returned from any collective by the
			// time we get here.
			telemetry.RecordEvent(telemetry.EvGroupShrink, int64(m), 0, 0)
			g.group.Leave(m)
		}()
	}
	wg.Wait()
	// The root's error is fatal whatever it is (including a secondary
	// ErrAborted unwind — the abort means another failure already doomed
	// the group's SMB side).
	if errs[0] != nil {
		return nil, errs[0]
	}
	// Non-root failures were shrunk past; record them and carry on.
	for m := 1; m < n; m++ {
		if errs[m] != nil {
			stats.FailedMembers = append(stats.FailedMembers, m)
		}
	}
	if stats.Pushes, stats.DeadPeers, err = g.ex.finish(); err != nil {
		return nil, fmt.Errorf("group %d %w", cfg.Comm.Rank(), err)
	}
	if stats.StoppedBy == "" {
		stats.StoppedBy = "budget"
	}
	return stats, nil
}

// runMember is the per-member training loop. Member 0 is the group root,
// the only member that writes stats.
func (g *HybridGroup) runMember(m int, solver *nn.SGDSolver, hardCap int, stats *GroupStats) error {
	cfg := &g.cfg
	net := cfg.Nets[m]
	loader := cfg.Loaders[m]
	isRoot := m == 0
	elems := g.buffers.Elems()
	// Only the root member records spans: the group occupies one pair of
	// tracks in the trace, mirroring the one-SMB-rank-per-group topology.
	var tel *telemetry.Trainer
	if isRoot {
		tel = cfg.Telemetry
	}
	mainTID := telemetry.MainTID(cfg.Comm.Rank())

	grads := make([]float32, elems)
	local := make([]float32, elems)
	global := make([]float32, elems)
	flag := make([]float32, 1) // broadcast each check round: 1 = stop

	for iter := 0; iter < hardCap; iter++ {
		// (1) Synchronous SSGD inside the group: compute gradients,
		// ncclAllReduce, local update from the aggregated gradient.
		spT45 := tel.Begin(mainTID, telemetry.PhaseT45)
		batch := loader.Next()
		net.ZeroGrads()
		loss, _, err := net.TrainStep(batch.X, batch.Labels)
		if err != nil {
			spT45.End()
			return fmt.Errorf("group %d member %d iter %d: %w", cfg.Comm.Rank(), m, iter, err)
		}
		net.FlatGrads(grads)
		err = g.group.AllReduceMean(m, grads)
		if err == nil {
			err = net.SetFlatGrads(grads)
		}
		spT45.End()
		if err != nil {
			return err
		}
		solver.ApplyUpdate()
		if isRoot {
			stats.RootLossHistory = append(stats.RootLossHistory, loss)
			tel.IncIteration()
		}

		// (2) Root's inter-group SEASGD exchange every update_interval.
		if isRoot && g.ex.due(iter) {
			if _, _, err := g.ex.step(net, local, global); err != nil {
				return err
			}
		}
		// (3) Root broadcasts the refreshed weight W'grp to the group.
		if g.ex.due(iter) {
			net.FlatWeights(local)
			if err := g.group.Broadcast(m, 0, local); err != nil {
				return err
			}
			if !isRoot {
				if err := net.SetFlatWeights(local); err != nil {
					return err
				}
			}
		}

		if isRoot {
			if err := g.ex.asyncErr(); err != nil {
				return fmt.Errorf("group %d %w", cfg.Comm.Rank(), err)
			}
		}

		if isRoot && cfg.Hook != nil {
			if err := cfg.Hook(g, iter); err != nil {
				return fmt.Errorf("group %d hook: %w", cfg.Comm.Rank(), err)
			}
		}

		// (4) Progress + termination. The root evaluates the shared
		// criterion and broadcasts the verdict so all members stop at
		// the same iteration.
		if isRoot {
			stopNow, by, err := g.ex.finishIteration(int64(iter + 1))
			if err != nil {
				return err
			}
			if stopNow {
				flag[0] = 1
				stats.StoppedBy = by
			}
		}
		if err := g.group.Broadcast(m, 0, flag); err != nil {
			return err
		}
		if flag[0] != 0 {
			if isRoot {
				stats.Iterations = iter + 1
			}
			return nil
		}
		// See the matching yield in Worker.Run: keep group progress
		// comparable when CPU-oversubscribed.
		runtime.Gosched()
	}
	if isRoot {
		stats.Iterations = hardCap
	}
	return nil
}
