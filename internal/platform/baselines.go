package platform

import (
	"errors"
	"fmt"
	"sync"

	"shmcaffe/internal/dataset"
	"shmcaffe/internal/nccl"
	"shmcaffe/internal/nn"
	"shmcaffe/internal/tensor"
)

// workerSet is the common per-worker state of the synchronous baselines.
type workerSet struct {
	nets    []*nn.Network
	solvers []*nn.SGDSolver
	loaders []*dataset.Loader
	iters   int // per-worker iterations total
	perEp   int // per-worker iterations per epoch
}

// buildWorkers constructs identical replicas, disjoint shards and loaders.
func buildWorkers(cfg *Config, label string) (*workerSet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	set := &workerSet{
		perEp: cfg.iterationsPerEpoch(),
	}
	set.iters = set.perEp * cfg.Epochs
	for r := 0; r < cfg.Workers; r++ {
		net, err := cfg.Model(fmt.Sprintf("%s-w%d", label, r))
		if err != nil {
			return nil, err
		}
		net.InitWeights(tensor.NewRNG(cfg.Seed)) // identical start
		shard, err := dataset.NewShard(cfg.Train, r, cfg.Workers)
		if err != nil {
			return nil, err
		}
		loader, err := dataset.NewLoader(shard, cfg.BatchSize, cfg.Seed+uint64(r)*7919)
		if err != nil {
			return nil, err
		}
		set.nets = append(set.nets, net)
		set.solvers = append(set.solvers, nn.NewSGDSolver(net, cfg.Solver))
		set.loaders = append(set.loaders, loader)
	}
	return set, nil
}

// collectCurve assembles the epoch curve recorded by worker 0.
type curveRecorder struct {
	eval        *evaluator
	perEp       int
	epochLoss   []float64
	curve       []EpochPoint
	lastWeights []float32
}

func (r *curveRecorder) record(iter int, loss float64, weights []float32) error {
	r.epochLoss = append(r.epochLoss, loss)
	if (iter+1)%r.perEp != 0 {
		return nil
	}
	valLoss, acc, err := r.eval.score(weights)
	if err != nil {
		return err
	}
	if r.lastWeights == nil {
		r.lastWeights = make([]float32, len(weights))
	}
	copy(r.lastWeights, weights)
	r.curve = append(r.curve, EpochPoint{
		Epoch:     (iter + 1) / r.perEp,
		TrainLoss: meanTail(r.epochLoss, r.perEp),
		ValLoss:   valLoss,
		Accuracy:  acc,
	})
	return nil
}

func (r *curveRecorder) result(name string, workers, iters int) *Result {
	res := &Result{
		Platform:     name,
		Workers:      workers,
		Curve:        r.curve,
		Iterations:   iters,
		FinalWeights: r.lastWeights,
	}
	if len(r.curve) > 0 {
		last := r.curve[len(r.curve)-1]
		res.FinalAcc = last.Accuracy
		res.FinalLoss = last.ValLoss
	}
	return res
}

// The three synchronous SGD (SSGD) baselines of the paper's Sec. IV do the
// same math and differ only in their gradient collective, so they run one
// loop (trainSSGD) over one nccl.Group. The timing model (perfmodel) is what
// tells their communication costs apart.

// Caffe is BVLC Caffe: single-node SSGD over the node's GPUs with NCCL
// allreduce (paper: "If a multi-GPU setting is used, SSGD is implemented
// using NCCL Allreduce").
type Caffe struct{}

var _ Trainer = Caffe{}

// Name implements Trainer.
func (Caffe) Name() string { return "Caffe" }

// Train implements Trainer.
func (c Caffe) Train(cfg Config) (*Result, error) {
	return trainSSGD(cfg, c.Name(), "caffe", allReduceStep)
}

// CaffeMPI is Inspur Caffe-MPI: star topology. The master gathers gradients
// from all slaves (MPI_Send/MPI_Recv in the original; a rank-order Reduce
// here), takes the average, updates the master weights, and distributes
// them back.
type CaffeMPI struct{}

var _ Trainer = CaffeMPI{}

// Name implements Trainer.
func (CaffeMPI) Name() string { return "Caffe-MPI" }

// Train implements Trainer.
func (c CaffeMPI) Train(cfg Config) (*Result, error) {
	return trainSSGD(cfg, c.Name(), "caffempi", masterStep)
}

// MPICaffe is the authors' comparison baseline: SSGD where every worker
// aggregates gradients with MPI_Allreduce and applies the same update. The
// allreduce is the ring Caffe runs, so the two train bit for bit alike.
type MPICaffe struct{}

var _ Trainer = MPICaffe{}

// Name implements Trainer.
func (MPICaffe) Name() string { return "MPICaffe" }

// Train implements Trainer.
func (m MPICaffe) Train(cfg Config) (*Result, error) {
	return trainSSGD(cfg, m.Name(), "mpicaffe", allReduceStep)
}

// An ssgdStep is rank r's collective and update after its TrainStep left
// the minibatch's gradients in the slab. Every rank leaves it holding the
// same weights and a clear gradient slab.
type ssgdStep func(g *nccl.Group, r int, net *nn.Network, solver *nn.SGDSolver) error

// allReduceStep averages the gradients over the ring on every rank, in
// place, and applies the same update everywhere.
func allReduceStep(g *nccl.Group, r int, net *nn.Network, solver *nn.SGDSolver) error {
	if err := g.AllReduceMean(r, net.Grads()); err != nil {
		return err
	}
	solver.ApplyUpdate()
	return nil
}

// masterStep sums every rank's gradients into the master (rank 0) in rank
// order, which averages them and updates its weights; the slaves drop
// theirs, and the master broadcasts its weights to them.
func masterStep(g *nccl.Group, r int, net *nn.Network, solver *nn.SGDSolver) error {
	grads := net.Grads()
	if err := g.Reduce(r, 0, grads); err != nil {
		return err
	}
	if r == 0 {
		inv := 1 / float32(g.Size())
		for i := range grads {
			grads[i] *= inv
		}
		solver.ApplyUpdate()
	} else {
		net.ZeroGrads()
	}
	return g.Broadcast(r, 0, net.Weights())
}

// trainSSGD runs one SSGD baseline: each rank trains a minibatch into its
// gradient slab and runs step; rank 0 records the curve. A failed rank
// aborts the group, so the others return instead of waiting for it.
func trainSSGD(cfg Config, name, label string, step ssgdStep) (*Result, error) {
	set, err := buildWorkers(&cfg, label)
	if err != nil {
		return nil, err
	}
	eval, err := newEvaluator(&cfg, label+"-eval")
	if err != nil {
		return nil, err
	}
	group, err := nccl.NewGroup(cfg.Workers)
	if err != nil {
		return nil, err
	}
	rec := &curveRecorder{eval: eval, perEp: set.perEp}

	var wg sync.WaitGroup
	errs := make([]error, cfg.Workers)
	for r := 0; r < cfg.Workers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[r] = ssgdRank(set, group, r, rec, step); errs[r] != nil {
				group.Abort()
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return rec.result(name, cfg.Workers, set.iters), nil
}

// ssgdRank is rank r's training loop.
func ssgdRank(set *workerSet, group *nccl.Group, r int, rec *curveRecorder, step ssgdStep) error {
	net := set.nets[r]
	for iter := 0; iter < set.iters; iter++ {
		b := set.loaders[r].Next()
		loss, _, err := net.TrainStep(b.X, b.Labels)
		if err != nil {
			return err
		}
		if err := step(group, r, net, set.solvers[r]); err != nil {
			return err
		}
		if r == 0 {
			if err := rec.record(iter, loss, net.Weights()); err != nil {
				return err
			}
		}
	}
	return nil
}
