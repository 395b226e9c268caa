// Package shmcaffe is the public API of the ShmCaffe reproduction: a
// distributed deep-learning platform that shares training parameters
// through a remote shared memory buffer (the Soft Memory Box) instead of a
// parameter server, implementing the SEASGD and Hybrid SGD algorithms of
//
//	Ahn, Kim, Lim, Choi, Mohaisen, Kang.
//	"ShmCaffe: A Distributed Deep Learning Platform with Shared Memory
//	Buffer for HPC Architecture." ICDCS 2018.
//
// The package re-exports the stable surface of the internal packages:
//
//   - The SMB substrate: Store / Server / Client (in-process and TCP).
//   - The SEASGD/HSGD core: Worker, HybridGroup, the elastic update math,
//     and the termination-alignment policies.
//   - The four evaluation platforms behind one Trainer interface.
//   - The performance models that regenerate the paper's timing exhibits.
//   - The neural-network and dataset substrates the functional
//     experiments train on.
//
// Quick start (see examples/quickstart for the runnable version):
//
//	store := shmcaffe.NewStore()
//	world, _ := shmcaffe.NewWorld(4)
//	// one goroutine per worker: NewWorker(...) then Run()
//
// or at the platform level:
//
//	res, err := shmcaffe.Platforms()["shmcaffe-h"].Train(cfg)
package shmcaffe

import (
	"io"

	"shmcaffe/internal/core"
	"shmcaffe/internal/dataset"
	"shmcaffe/internal/mpi"
	"shmcaffe/internal/nn"
	"shmcaffe/internal/perfmodel"
	"shmcaffe/internal/platform"
	"shmcaffe/internal/rds"
	"shmcaffe/internal/smb"
	"shmcaffe/internal/tensor"
)

// ---- Soft Memory Box (paper Sec. III-B) ----

type (
	// Store is the server-side SMB segment table.
	Store = smb.Store
	// SMBServer serves a Store over TCP.
	SMBServer = smb.Server
	// SMBClient is the SMB API: segment lifecycle, Read/Write, Accumulate,
	// and the WriteAccumulate push built from the last two.
	SMBClient = smb.Client
	// SHMKey identifies a segment for attachment (broadcast by the master).
	SHMKey = smb.SHMKey
	// Handle is an attached client's access key (the RDMA rkey analogue).
	Handle = smb.Handle
	// SegmentNames builds the conventional Fig. 5 segment names.
	SegmentNames = smb.SegmentNames
	// SMBStats counts server-side traffic.
	SMBStats = smb.Stats
)

// NewStore returns an empty SMB segment store.
func NewStore() *Store { return smb.NewStore() }

// NewLocalClient returns an in-process SMB client over store.
func NewLocalClient(store *Store) SMBClient { return smb.NewLocalClient(store) }

// NewSMBServer returns a TCP server around store on addr.
func NewSMBServer(store *Store, addr string) (*SMBServer, error) {
	return smb.NewServer(store, addr)
}

// DialSMB connects to a TCP SMB server.
func DialSMB(addr string) (SMBClient, error) { return smb.Dial(addr) }

// ---- SEASGD / HSGD core (paper Sec. III) ----

type (
	// Worker is one SEASGD training process (Fig. 6).
	Worker = core.Worker
	// WorkerConfig configures a Worker. The termination check runs every
	// iteration and the timing split reads the wall clock; neither is an
	// option.
	WorkerConfig = core.WorkerConfig
	// RunStats is a worker's outcome with the Eq. (8) timing breakdown.
	RunStats = core.RunStats
	// HybridGroup runs HSGD for one intra-node worker group (Fig. 4).
	HybridGroup = core.HybridGroup
	// HybridGroupConfig configures a HybridGroup; its root runs the same
	// exchange and termination check as a Worker.
	HybridGroupConfig = core.HybridGroupConfig
	// GroupStats is a hybrid group's outcome.
	GroupStats = core.GroupStats
	// ElasticConfig carries moving_rate and update_interval.
	ElasticConfig = core.ElasticConfig
	// TerminationPolicy aligns worker end times (Sec. III-E).
	TerminationPolicy = core.TerminationPolicy
	// JobBuffers is a worker's view of the SMB segment layout (Fig. 5).
	JobBuffers = core.JobBuffers
)

// Termination-alignment criteria (paper Sec. III-E).
const (
	StopOnMaster      = core.StopOnMaster
	StopOnFirst       = core.StopOnFirst
	StopOnAverage     = core.StopOnAverage
	StopIndependently = core.StopIndependently
)

// NewWorker bootstraps one SEASGD worker (collective across the MPI world).
func NewWorker(cfg WorkerConfig) (*Worker, error) { return core.NewWorker(cfg) }

// NewHybridGroup bootstraps one HSGD worker group.
func NewHybridGroup(cfg HybridGroupConfig) (*HybridGroup, error) {
	return core.NewHybridGroup(cfg)
}

// DefaultElasticConfig returns the paper's hyper-parameters (α=0.2, k=1).
func DefaultElasticConfig() ElasticConfig { return core.DefaultElasticConfig() }

// ---- MPI runtime ----

type (
	// World is an in-process MPI communicator.
	World = mpi.World
	// Comm is one rank's endpoint.
	Comm = mpi.Comm
)

// NewWorld creates an n-rank communicator.
func NewWorld(n int) (*World, error) { return mpi.NewWorld(n) }

// ---- Platforms (paper Sec. IV-C) ----

type (
	// Trainer is one deep-learning platform.
	Trainer = platform.Trainer
	// TrainConfig describes one training run.
	TrainConfig = platform.Config
	// TrainResult is one run's outcome (convergence curve).
	TrainResult = platform.Result
	// EpochPoint is one point of a convergence curve.
	EpochPoint = platform.EpochPoint
	// ModelBuilder constructs a model replica.
	ModelBuilder = platform.ModelBuilder
)

// Platforms returns the five platforms keyed by short name: caffe,
// caffe-mpi, mpicaffe, shmcaffe-a, shmcaffe-h.
func Platforms() map[string]Trainer { return platform.Registry() }

// ---- Neural networks & solver (the Caffe stand-in) ----

type (
	// Network is a sequential model with Caffe-style flat weight vectors.
	Network = nn.Network
	// SolverConfig mirrors the Caffe SGD hyper-parameters.
	SolverConfig = nn.SolverConfig
	// SGDSolver applies momentum SGD (Eq. 2).
	SGDSolver = nn.SGDSolver
	// ModelProfile carries a paper model's size and compute time.
	ModelProfile = nn.Profile
)

// MLP builds a two-hidden-layer perceptron.
func MLP(name string, features, hidden, classes int) (*Network, error) {
	return nn.MLP(name, features, hidden, classes)
}

// SmallCNN builds a LeNet-style CNN for c×size×size inputs.
func SmallCNN(name string, channels, size, classes int, seed uint64) (*Network, error) {
	return nn.SmallCNN(name, channels, size, classes, seed)
}

// DefaultSolverConfig returns the paper's solver settings scaled for the
// functional models.
func DefaultSolverConfig() SolverConfig { return nn.DefaultSolverConfig() }

// ParseNetSpec builds a network from the declarative netspec format (the
// prototxt stand-in); see internal/nn.ParseNetSpec for the grammar.
func ParseNetSpec(src string) (*Network, error) { return nn.ParseNetSpec(src) }

// SaveCheckpoint writes a network's weights as a Caffe-style snapshot.
func SaveCheckpoint(w io.Writer, net *Network) error { return nn.SaveCheckpoint(w, net) }

// LoadCheckpoint restores a snapshot into a same-architecture replica.
func LoadCheckpoint(r io.Reader, net *Network) (string, error) {
	return nn.LoadCheckpoint(r, net)
}

// PaperModels returns the four evaluation model profiles (Table IV).
func PaperModels() []ModelProfile { return nn.PaperModels() }

// ---- Datasets ----

type (
	// Dataset is a finite labeled corpus.
	Dataset = dataset.Dataset
	// GaussianConfig parameterizes the Gaussian-cluster corpus.
	GaussianConfig = dataset.GaussianConfig
	// Loader draws shuffled minibatches.
	Loader = dataset.Loader
	// Batch is one minibatch.
	Batch = dataset.Batch
)

// NewGaussianDataset builds the synthetic classification corpus.
func NewGaussianDataset(cfg GaussianConfig) (Dataset, error) { return dataset.NewGaussian(cfg) }

// NewPatternDataset builds the patterned image corpus (CNN workloads).
func NewPatternDataset(classes, perClass, channels, size int, noise float64, seed uint64) (Dataset, error) {
	return dataset.NewPatternImages(classes, perClass, channels, size, noise, seed)
}

// SplitDataset divides a corpus into train/validation.
func SplitDataset(ds Dataset, trainFrac float64) (train, val Dataset, err error) {
	return dataset.Split(ds, trainFrac)
}

// ShardDataset returns worker rank's disjoint partition out of n.
func ShardDataset(ds Dataset, rank, n int) (Dataset, error) { return dataset.NewShard(ds, rank, n) }

// NewLoader returns a shuffling minibatch loader.
func NewLoader(ds Dataset, batchSize int, seed uint64) (*Loader, error) {
	return dataset.NewLoader(ds, batchSize, seed)
}

// NewRNG returns a deterministic random generator for weight init.
func NewRNG(seed uint64) *tensor.RNG { return tensor.NewRNG(seed) }

// AugmentConfig selects train-time image augmentations.
type AugmentConfig = dataset.AugmentConfig

// NewAugmentedDataset wraps an image corpus with random train-time
// transforms (flip/shift/noise).
func NewAugmentedDataset(base Dataset, cfg AugmentConfig) (Dataset, error) {
	return dataset.NewAugmented(base, cfg)
}

// SaveCorpus writes a dataset as a file-backed record store (the LMDB
// pipeline stand-in); OpenCorpus serves samples from such a file.
func SaveCorpus(ds Dataset, path string) error { return dataset.SaveToDB(ds, path) }

// OpenCorpus opens a corpus written by SaveCorpus. The returned dataset
// must be closed by the caller.
func OpenCorpus(path string) (*dataset.DBDataset, error) { return dataset.OpenDB(path) }

// ---- RDS transport (the paper's communication module stand-in) ----

type (
	// RDSEndpoint multiplexes reliable datagram connections over one UDP
	// socket.
	RDSEndpoint = rds.Endpoint
	// RDSConn is one reliable ordered stream (io.ReadWriteCloser).
	RDSConn = rds.Conn
)

// ListenRDS binds a reliable-datagram endpoint on a UDP address.
func ListenRDS(addr string) (*RDSEndpoint, error) { return rds.ListenUDP(addr) }

// NewSMBStreamClient wraps any established stream connection (e.g. an
// RDSConn) as an SMB client.
func NewSMBStreamClient(rwc io.ReadWriteCloser) SMBClient { return smb.NewStreamClient(rwc) }

// ---- Performance models (paper Sec. IV timing exhibits) ----

type (
	// Hardware models the paper's testbed.
	Hardware = perfmodel.Hardware
	// IterBreakdown is the Eq. (8) per-iteration decomposition.
	IterBreakdown = perfmodel.IterBreakdown
	// SEASGDOptions select design-point ablations.
	SEASGDOptions = perfmodel.SEASGDOptions
)

// DefaultHardware returns the calibrated testbed model.
func DefaultHardware() Hardware { return perfmodel.DefaultHardware() }

// SimulateSEASGD models a ShmCaffe-A configuration's iteration time.
func SimulateSEASGD(p ModelProfile, workers, iters int, hw Hardware) (IterBreakdown, error) {
	return perfmodel.SimulateSEASGD(p, workers, iters, hw)
}

// SimulateHSGD models a ShmCaffe-H configuration's iteration time.
func SimulateHSGD(p ModelProfile, groupSizes []int, iters int, hw Hardware) (IterBreakdown, error) {
	return perfmodel.SimulateHSGD(p, groupSizes, iters, hw)
}

// SimulateCaffe models single-node multi-GPU Caffe.
func SimulateCaffe(p ModelProfile, gpus, iters int, hw Hardware) (IterBreakdown, error) {
	return perfmodel.SimulateCaffe(p, gpus, iters, hw)
}

// SimulateCaffeMPI models Inspur Caffe-MPI's star topology.
func SimulateCaffeMPI(p ModelProfile, workers, iters int, hw Hardware) (IterBreakdown, error) {
	return perfmodel.SimulateCaffeMPI(p, workers, iters, hw)
}

// SimulateMPICaffe models the MPI_Allreduce SSGD baseline.
func SimulateMPICaffe(p ModelProfile, workers, iters int, hw Hardware) (IterBreakdown, error) {
	return perfmodel.SimulateMPICaffe(p, workers, iters, hw)
}

// SimulateSMBBandwidth reproduces the Fig. 7 bandwidth experiment.
func SimulateSMBBandwidth(n int, totalBytes, opBytes float64, hw Hardware) (float64, error) {
	return perfmodel.SimulateSMBBandwidth(n, totalBytes, opBytes, hw)
}
