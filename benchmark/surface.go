package main

// The measured surface. This is the only file of the benchmark that imports
// a repository package (surface_test.go enforces it), so it is the complete
// list of what a later change may not rename, re-type or delete without
// editing the instrument it is judged with. Everything else in benchmark/
// reaches the repository through the aliases, bindings, flag names and
// series names below.
//
// Deliberately absent: internal/bench and every cmd/* helper (a simplicity
// change may delete them), the simulators and goroutine platforms (simnet,
// perfmodel, platform, mpi, nccl, ps, rds — they model time or never cross a
// process boundary), and the optional capability interfaces ROADMAP item 2
// plans to fold away (WriteAccumulator, SeqAccumulator, TraceCarrier,
// Notifier, the Instrument/EnableTrace type assertions). The one exception is
// smb.Snapshotter: the snapshot verbs have no other spelling yet, and the
// snap-cycle probe and shmserve's refresh loop are the same three calls.

import (
	"shmcaffe/internal/core"
	"shmcaffe/internal/dataset"
	"shmcaffe/internal/nn"
	"shmcaffe/internal/smb"
	"shmcaffe/internal/telemetry"
	"shmcaffe/internal/tensor"
)

// Types, and the methods and fields the benchmark uses on them (including on
// values it never names: the RunStats a worker returns, the SGDSolver and
// Loader the constructors below return, the Batch and Tensor they hand out):
//
//	smbClient     Lookup Attach Read Close (plus what core calls underneath)
//	snapshotter   Snapshot SnapRead SnapRelease; SnapInfo.ID
//	jobBuffers    ReadGlobal PushIncrement Progress SignalStop
//	workerConfig  Job Client Net Solver Elastic Termination MaxIterations
//	              Loader Hook Telemetry
//	worker        Run Buffers
//	RunStats      Iterations Pushes StoppedBy LossHistory CompTime
//	              ExposedCommTime BlockedTime
//	network       NumParams InShape InitWeights Forward Evaluate FlatWeights
//	              SetFlatWeights
//	SGDSolver     Step
//	Loader        Next; Batch.X Batch.Labels
//	dataSet       Len
//	Tensor        Data
//	RNG           NormFloat64 Float64
//	trainer       Tracer.WriteChromeTraceFile Tracer.Dropped
//	registry      WritePrometheus
//	traceEvent    Name Cat Ph TS Dur PID TID Args
type (
	smbClient    = smb.Client
	snapshotter  = smb.Snapshotter
	dialOptions  = smb.DialOptions
	segmentNames = smb.SegmentNames

	workerConfig     = core.WorkerConfig
	worker           = core.Worker
	jobBuffers       = core.JobBuffers
	elasticConfig    = core.ElasticConfig
	bootstrapOptions = core.BootstrapOptions

	network      = nn.Network
	solverConfig = nn.SolverConfig

	dataSet = dataset.Dataset

	trainer    = telemetry.Trainer
	registry   = telemetry.Registry
	traceEvent = telemetry.TraceEvent
	promSample = telemetry.Sample
)

// Functions and constants.
var (
	dialTransport  = smb.DialTransport
	newStore       = smb.NewStore
	newLocalClient = smb.NewLocalClient
	shmSupported   = smb.ShmSupported

	newWorkerPolling    = core.NewWorkerPolling
	setupBuffersPolling = core.SetupBuffersPolling

	nnMLP               = nn.MLP
	nnSmallCNN          = nn.SmallCNN
	newSGDSolver        = nn.NewSGDSolver
	defaultSolverConfig = nn.DefaultSolverConfig

	newGaussian      = dataset.NewGaussian
	newPatternImages = dataset.NewPatternImages
	splitDataset     = dataset.Split
	newShard         = dataset.NewShard
	newLoader        = dataset.NewLoader

	newRNG           = tensor.NewRNG
	tensorFromSlice  = tensor.FromSlice
	tensorGemm       = tensor.Gemm
	fusedElasticStep = tensor.FusedElasticStep
	decodeFloat32    = tensor.DecodeFloat32
	simdBackend      = tensor.SimdBackend

	newTrainer       = telemetry.NewTrainer
	newRegistry      = telemetry.NewRegistry
	loadTraceFile    = telemetry.LoadTraceFile
	traceEpochUnixNs = telemetry.TraceEpochUnixNano
	phaseFromName    = telemetry.PhaseFromName
	parsePrometheus  = telemetry.ParsePrometheus
	promSampleValue  = telemetry.SampleValue
)

type gaussianConfig = dataset.GaussianConfig

// stopOnMaster is shmtrain's default termination policy; the window is closed
// through its shared stop flag.
const stopOnMaster = core.StopOnMaster

// Fig. 6 phases the traced run reads back from the worker trace.
const (
	phaseT1  = telemetry.PhaseT1
	phaseT2  = telemetry.PhaseT2
	phaseT45 = telemetry.PhaseT45
	phaseTA1 = telemetry.PhaseTA1
	phaseTA4 = telemetry.PhaseTA4
	phaseTA5 = telemetry.PhaseTA5
)

// Binaries (package paths under the repository root) and the flags passed.
// Every other flag keeps its default — for shmserve that includes -batch 16,
// -batch-delay 2ms and -refresh 200ms, which the serve workload measures as
// shipped rather than tunes.
const (
	pkgSMBServer = "./cmd/smbserver"
	pkgSHMServe  = "./cmd/shmserve"

	flagServerAddr  = "-addr"  // smbserver: TCP listen address
	flagServerHTTP  = "-http"  // smbserver: metrics listen address
	flagServerShm   = "-shm"   // smbserver: unix control socket of the shm transport
	flagServerStats = "-stats" // smbserver: periodic stat lines (0 = off)

	flagServeAddr      = "-addr"
	flagServeTransport = "-transport"
	flagServeJob       = "-job"
	flagServeFeatures  = "-features"
	flagServeHidden    = "-hidden"
	flagServeClasses   = "-classes"
	flagServeListen    = "-listen"

	// shmserveBatchDelayMs is shmserve's default -batch-delay: with one
	// request in flight it is the latency floor the reconciliation names.
	shmserveBatchDelayMs = 2.0
)

// Lines the binaries print once they listen; the launcher parses the
// ephemeral ports out of them.
const (
	reServerTCP  = `SMB server listening on tcp (\S+)`
	reServerHTTP = `SMB metrics on http://(\S+)/metrics`
	reServeHTTP  = `shmserve: listening on http://(\S+) `
)

// HTTP paths and the /infer bodies.
const (
	pathMetrics = "/metrics"
	pathInfer   = "/infer"
)

type inferRequest struct {
	Features []float32 `json:"features"`
}

type inferReply struct {
	Class        int       `json:"class"`
	Scores       []float32 `json:"scores"`
	ModelVersion uint64    `json:"model_version"`
}

// Prometheus series scraped from the binaries.
const (
	serReads        = "smb_reads_total"
	serAccumulates  = "smb_accumulates_total"
	serBytesRead    = "smb_bytes_read_total"
	serBytesWritten = "smb_bytes_written_total"
	serShmOps       = "smb_shm_ops_total" // label op="accumulate"|"read"|"write": traffic of mapped clients
	serShmBytesAcc  = "smb_shm_bytes_accumulated_total"
	serDispatch     = "smb_server_dispatch_seconds"
	serStripeWait   = "smb_accumulate_stripe_wait_seconds"
	serDupAcks      = "smb_seq_duplicates_total"
	serConnErrors   = "smb_server_conn_errors_total"
	serSnapCowPages = "smb_snap_cow_pages_total"
	serSnapExhaust  = "smb_snap_retries_exhausted_total"

	serServeInfer      = "shmserve_infer_seconds"
	serServeBatch      = "shmserve_batch_size"
	serServeRefreshes  = "shmserve_refreshes_total"
	serServeRefreshErr = "shmserve_refresh_failures_total"
	serServeAge        = "shmserve_snapshot_age_seconds"

	serStaleness = "seasgd_t1_staleness_iterations" // worker-side, read from the child's own registry
)
