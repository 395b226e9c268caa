package platform

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"shmcaffe/internal/core"
	"shmcaffe/internal/dataset"
	"shmcaffe/internal/mpi"
	"shmcaffe/internal/smb"
	"shmcaffe/internal/tensor"
)

// ShmCaffeA is asynchronous ShmCaffe: every worker is an independent SEASGD
// process against the SMB server (paper Sec. IV-D, "ShmCaffe-A").
type ShmCaffeA struct{}

var _ Trainer = ShmCaffeA{}

// Name implements Trainer.
func (ShmCaffeA) Name() string { return "ShmCaffe-A" }

// Train implements Trainer.
func (ShmCaffeA) Train(cfg Config) (*Result, error) {
	set, err := buildWorkers(&cfg, "shma")
	if err != nil {
		return nil, err
	}
	eval, err := newEvaluator(&cfg, "shma-eval")
	if err != nil {
		return nil, err
	}
	world, err := mpi.NewWorld(cfg.Workers)
	if err != nil {
		return nil, err
	}
	clients, closeClients, err := smbClients(&cfg, cfg.Workers)
	if err != nil {
		return nil, err
	}
	defer closeClients()
	job := cfg.Job
	if job == "" {
		job = "shma"
	}
	rec := &curveRecorder{eval: eval, perEp: set.perEp}
	globalBuf := make([]float32, set.nets[0].NumParams())

	// Rank 0's hook snapshots the *global* weight Wg at epoch
	// boundaries — the model ShmCaffe would actually ship.
	hook := func(w *core.Worker, iter int) error {
		if err := w.Buffers().ReadGlobal(globalBuf); err != nil {
			return err
		}
		return rec.record(iter, 0, globalBuf)
	}

	stats := make([]*core.RunStats, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for r := 0; r < cfg.Workers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			comm, err := world.Comm(r)
			if err != nil {
				errs[r] = err
				return
			}
			wcfg := core.WorkerConfig{
				Job:             job,
				Comm:            comm,
				Client:          clients[r],
				Net:             set.nets[r],
				Solver:          cfg.Solver,
				Elastic:         cfg.Elastic,
				Termination:     core.StopOnMaster,
				MaxIterations:   set.iters,
				Loader:          set.loaders[r],
				Telemetry:       cfg.Telemetry,
				LivenessTimeout: cfg.LivenessTimeout,
			}
			if r == 0 {
				wcfg.Hook = hook
			}
			w, err := core.NewWorker(wcfg)
			if err != nil {
				errs[r] = err
				return
			}
			stats[r], errs[r] = w.Run()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Fill the train-loss column of the curve from worker 0's history.
	fillTrainLoss(rec.curve, stats[0].LossHistory, set.perEp)
	return rec.result("ShmCaffe-A", cfg.Workers, stats[0].Iterations), nil
}

// ShmCaffeH is hybrid ShmCaffe: workers are partitioned into intra-node
// groups doing synchronous SSGD; group roots run SEASGD across groups
// (paper Sec. III-D / IV-D, "ShmCaffe-H").
type ShmCaffeH struct{}

var _ Trainer = ShmCaffeH{}

// Name implements Trainer.
func (ShmCaffeH) Name() string { return "ShmCaffe-H" }

// Train implements Trainer.
func (ShmCaffeH) Train(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gsize := cfg.groupSize()
	if cfg.Workers%gsize != 0 {
		return nil, fmt.Errorf("%d workers not divisible into groups of %d: %w",
			cfg.Workers, gsize, ErrConfig)
	}
	nGroups := cfg.Workers / gsize

	eval, err := newEvaluator(&cfg, "shmh-eval")
	if err != nil {
		return nil, err
	}
	world, err := mpi.NewWorld(nGroups)
	if err != nil {
		return nil, err
	}
	clients, closeClients, err := smbClients(&cfg, nGroups)
	if err != nil {
		return nil, err
	}
	defer closeClients()
	job := cfg.Job
	if job == "" {
		job = "shmh"
	}
	perEp := cfg.iterationsPerEpoch()
	iters := perEp * cfg.Epochs
	rec := &curveRecorder{eval: eval, perEp: perEp}
	globalBuf := make([]float32, 0)

	hook := func(g *core.HybridGroup, iter int) error {
		if len(globalBuf) == 0 {
			globalBuf = make([]float32, g.Buffers().Elems())
		}
		if err := g.Buffers().ReadGlobal(globalBuf); err != nil {
			return err
		}
		return rec.record(iter, 0, globalBuf)
	}

	configs := make([]core.HybridGroupConfig, nGroups)
	for gi := 0; gi < nGroups; gi++ {
		comm, err := world.Comm(gi)
		if err != nil {
			return nil, err
		}
		gcfg := core.HybridGroupConfig{
			Job:             job,
			Comm:            comm,
			Client:          clients[gi],
			Solver:          cfg.Solver,
			Elastic:         cfg.Elastic,
			Termination:     core.StopOnMaster,
			MaxIterations:   iters,
			Telemetry:       cfg.Telemetry,
			LivenessTimeout: cfg.LivenessTimeout,
		}
		if gi == 0 {
			gcfg.Hook = hook
		}
		for m := 0; m < gsize; m++ {
			rank := gi*gsize + m
			net, err := cfg.Model(fmt.Sprintf("shmh-g%dm%d", gi, m))
			if err != nil {
				return nil, err
			}
			net.InitWeights(tensor.NewRNG(cfg.Seed))
			shard, err := dataset.NewShard(cfg.Train, rank, cfg.Workers)
			if err != nil {
				return nil, err
			}
			loader, err := dataset.NewLoader(shard, cfg.BatchSize, cfg.Seed+uint64(rank)*7919)
			if err != nil {
				return nil, err
			}
			gcfg.Nets = append(gcfg.Nets, net)
			gcfg.Loaders = append(gcfg.Loaders, loader)
		}
		configs[gi] = gcfg
	}

	stats := make([]*core.GroupStats, nGroups)
	errs := make([]error, nGroups)
	var wg sync.WaitGroup
	for gi := 0; gi < nGroups; gi++ {
		gi := gi
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := core.NewHybridGroup(configs[gi])
			if err != nil {
				errs[gi] = err
				return
			}
			stats[gi], errs[gi] = g.Run()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	fillTrainLoss(rec.curve, stats[0].RootLossHistory, perEp)
	return rec.result("ShmCaffe-H", cfg.Workers, stats[0].Iterations), nil
}

// smbClients builds one SMB client per participant: local clients on a
// fresh in-process store by default, or per-worker connections to
// cfg.SMBAddr over the transport cfg.SMBTransport names in smb's registry.
func smbClients(cfg *Config, n int) (clients []smb.Client, closeAll func(), err error) {
	clients = make([]smb.Client, n)
	if cfg.SMBAddr == "" {
		store := smb.NewStore()
		if cfg.Metrics != nil {
			store.Instrument(cfg.Metrics)
		}
		for i := range clients {
			clients[i] = smb.NewLocalClient(store)
		}
		return clients, func() {}, nil
	}
	fail := func(i int, err error) ([]smb.Client, func(), error) {
		for _, done := range clients[:i] {
			done.Close()
		}
		return nil, nil, err
	}
	name := cfg.SMBTransport
	if name == "" {
		name = "tcp"
	}
	for i := range clients {
		// The registry resolves the wire: a supervised session (per-op
		// deadlines, reconnect, sequence-stamped pushes) over TCP or the RDS
		// datagram transport, the negotiated shared-memory path, or
		// auto-negotiation between them. ClientID is rank-derived so dedup
		// keys stay distinct per worker on every transport.
		opts := smb.DialOptions{
			Addr:      cfg.SMBAddr,
			OpTimeout: cfg.SMBOpTimeout,
			Seed:      cfg.Seed + uint64(i)*7919,
			ClientID:  uint64(i + 1),
		}
		if i == 0 {
			// Instrument one representative connection: every client
			// registering the same metric family would collide in the
			// registry, and one worker's round trips characterize the
			// wire.
			opts.Metrics = cfg.Metrics
		}
		c, err := smb.DialTransport(name, opts)
		if err != nil {
			if !slices.Contains(smb.TransportNames(), name) {
				// Only a name the registry lacks is a configuration error;
				// a failed negotiation is a transport fault and stays one.
				err = fmt.Errorf("%w: %w", ErrConfig, err)
			}
			return fail(i, fmt.Errorf("dial SMB transport %s: %w", name, err))
		}
		clients[i] = c
		if i == 0 {
			// One bounded probe verifies the server is reachable before
			// any MPI collective starts. Supervised sessions connect
			// lazily, so without this a misconfigured address would fail
			// inside rank 0's bootstrap and strand the other ranks in a
			// broadcast it never joins.
			if _, err := c.Lookup("\x00reachability-probe"); err != nil && !errors.Is(err, smb.ErrUnknownSegment) {
				return fail(1, fmt.Errorf("dial SMB server: %w", err))
			}
		}
	}
	return clients, func() {
		for _, c := range clients {
			c.Close()
		}
	}, nil
}

// fillTrainLoss back-fills the TrainLoss column of a curve from a per-
// iteration loss history (the SEASGD hooks cannot see the loss because it
// belongs to the solver loop).
func fillTrainLoss(curve []EpochPoint, losses []float64, perEp int) {
	for i := range curve {
		end := (i + 1) * perEp
		if end > len(losses) {
			end = len(losses)
		}
		if end > 0 {
			curve[i].TrainLoss = meanTail(losses[:end], perEp)
		}
	}
}

// Registry returns the paper's four platforms plus the ShmCaffe-H variant,
// keyed by display name.
func Registry() map[string]Trainer {
	return map[string]Trainer{
		"caffe":      Caffe{},
		"caffe-mpi":  CaffeMPI{},
		"mpicaffe":   MPICaffe{},
		"shmcaffe-a": ShmCaffeA{},
		"shmcaffe-h": ShmCaffeH{},
	}
}
