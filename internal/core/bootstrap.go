package core

import (
	"fmt"
	"time"

	"shmcaffe/internal/smb"
)

// SMB-only bootstrap: form a training job across OS processes with no MPI
// runtime at all, using the memory server itself for rendezvous. The
// master creates the segments; workers poll for them; a boot segment of
// per-rank ready flags provides the startup barrier. This is the shape a
// multi-machine deployment takes with cmd/smbserver plus one
// `shmtrain -rank R -world N` per machine.

// bootSegment returns the bootstrap-barrier segment name.
func bootSegment(job string) string { return job + "/boot" }

// BootstrapOptions tunes the polling rendezvous.
type BootstrapOptions struct {
	// PollInterval is the delay between rendezvous polls (default 20ms).
	PollInterval time.Duration
	// Timeout bounds the whole bootstrap (default 60s).
	Timeout time.Duration
}

func (o *BootstrapOptions) defaults() {
	if o.PollInterval <= 0 {
		o.PollInterval = 20 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 60 * time.Second
	}
}

// SetupBuffersPolling is SetupBuffers without an MPI communicator: rank 0
// creates and seeds the segments; other ranks poll the server until they
// appear; everyone then passes a ready-flag barrier. All ranks must call
// it with the same job, n and elems.
func SetupBuffersPolling(client smb.Client, job string, rank, n, elems int, initWeights []float32, opts BootstrapOptions) (*JobBuffers, error) {
	opts.defaults()
	if elems <= 0 || n < 1 || rank < 0 || rank >= n {
		return nil, fmt.Errorf("bootstrap %q rank %d of %d, %d elems: %w", job, rank, n, elems, ErrConfig)
	}
	names := smb.SegmentNames{Job: job}
	deadline := time.Now().Add(opts.Timeout)

	if rank == 0 {
		if _, err := createJob(client, names, n, elems, initWeights); err != nil {
			return nil, err
		}
		if _, err := client.Create(bootSegment(job), n*8); err != nil {
			return nil, fmt.Errorf("create boot: %w", err)
		}
	}

	// Everyone (master included) waits for the segment family, then
	// attaches.
	var globalKey smb.SHMKey
	for {
		key, err := client.Lookup(names.Global())
		if err == nil {
			// The boot segment is created last by the master, so its
			// presence implies the whole family is ready.
			if _, err := client.Lookup(bootSegment(job)); err == nil {
				globalKey = key
				break
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("bootstrap %q rank %d: rendezvous timeout: %w", job, rank, ErrConfig)
		}
		time.Sleep(opts.PollInterval)
	}

	b, err := attachJob(client, names, rank, n, elems, globalKey)
	if err != nil {
		return nil, err
	}

	// Ready-flag barrier: mark our slot, wait for all slots.
	bootKey, err := client.Lookup(bootSegment(job))
	if err != nil {
		return nil, err
	}
	boot, err := client.Attach(bootKey)
	if err != nil {
		return nil, err
	}
	if err := smb.WriteInt64(client, boot, rank, 1); err != nil {
		return nil, err
	}
	flags := make([]int64, n)
	for {
		if err := smb.ReadInt64SlotsAt(client, boot, 0, flags); err != nil {
			return nil, err
		}
		allReady := true
		for _, f := range flags {
			if f == 0 {
				allReady = false
				break
			}
		}
		if allReady {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("bootstrap %q rank %d: barrier timeout (flags %v): %w",
				job, rank, flags, ErrConfig)
		}
		time.Sleep(opts.PollInterval)
	}
	if err := client.Detach(boot); err != nil {
		return nil, err
	}
	return b, nil
}

// NewWorkerPolling builds a SEASGD worker using the SMB-only rendezvous:
// rank/world are explicit instead of coming from an MPI communicator. The
// returned worker behaves exactly like one from NewWorker.
func NewWorkerPolling(cfg WorkerConfig, rank, world int, opts BootstrapOptions) (*Worker, error) {
	if cfg.Comm != nil {
		return nil, fmt.Errorf("polling bootstrap excludes an MPI comm: %w", ErrConfig)
	}
	if err := cfg.validateCommon(); err != nil {
		return nil, err
	}
	if rank < 0 || rank >= world {
		return nil, fmt.Errorf("rank %d of %d: %w", rank, world, ErrConfig)
	}
	elems := cfg.Net.NumParams()
	var seed []float32
	if rank == 0 {
		seed = cfg.Net.FlatWeights(nil)
	}
	buffers, err := SetupBuffersPolling(cfg.Client, cfg.Job, rank, world, elems, seed, opts)
	if err != nil {
		return nil, fmt.Errorf("rank %d polling setup: %w", rank, err)
	}
	return newWorkerFromBuffers(cfg, rank, buffers), nil
}
