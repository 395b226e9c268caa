package core

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"shmcaffe/internal/smb"
	"shmcaffe/internal/tensor"
)

// The job bootstrap of Fig. 2, for every SEASGD driver: the master (rank
// 0) creates the segments; the other ranks poll the memory server until
// they appear; a boot segment of per-rank ready flags is the startup
// barrier. The paper's master broadcasts the Wg SHM key over MPI; here
// every rank looks the key up by name on the server instead, so the same
// handshake forms a job of goroutines sharing one process, or of separate
// processes with no launcher between them (cmd/smbserver plus one
// `shmtrain -rank R -world N` per machine).

// bootSegment returns the bootstrap-barrier segment name.
func bootSegment(job string) string { return job + "/boot" }

// BootstrapOptions tunes the polling rendezvous.
type BootstrapOptions struct {
	// PollInterval is the delay between rendezvous polls (default 1ms).
	PollInterval time.Duration
	// Timeout bounds the whole bootstrap (default 60s).
	Timeout time.Duration
}

func (o *BootstrapOptions) defaults() {
	if o.PollInterval <= 0 {
		o.PollInterval = time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 60 * time.Second
	}
}

// SetupBuffersPolling performs the bootstrap for one rank of an n-rank
// job: rank 0 creates the segments and seeds Wg with initWeights; other
// ranks poll the server until they appear; everyone creates its own ΔWx,
// attaches, and passes a ready-flag barrier that starts every rank at one
// instant. All ranks must call it with the same job, n and elems.
func SetupBuffersPolling(client smb.Client, job string, rank, n, elems int, initWeights []float32, opts BootstrapOptions) (*JobBuffers, error) {
	opts.defaults()
	if elems <= 0 || n < 1 || rank < 0 || rank >= n {
		return nil, fmt.Errorf("bootstrap %q rank %d of %d, %d elems: %w", job, rank, n, elems, ErrConfig)
	}
	names := smb.SegmentNames{Job: job}
	deadline := time.Now().Add(opts.Timeout)
	await := func(stage string, done func() (bool, error)) error {
		for {
			ok, err := done()
			if ok || err != nil {
				return err
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("bootstrap %q rank %d: %s timeout: %w", job, rank, stage, ErrConfig)
			}
			time.Sleep(opts.PollInterval)
		}
	}

	if rank == 0 {
		if err := createJob(client, names, n, elems, initWeights); err != nil {
			return nil, err
		}
		// Slots 0..n-1 are the ready flags, slot n the go word.
		if _, err := client.Create(bootSegment(job), (n+1)*8); err != nil {
			return nil, fmt.Errorf("create boot: %w", err)
		}
	}

	// Everyone (master included) waits for the segment family, then
	// attaches. The boot segment is created last by the master, so its
	// presence implies the whole family is ready.
	var globalKey, bootKey smb.SHMKey
	err := await("rendezvous", func() (bool, error) {
		var err error
		if globalKey, err = client.Lookup(names.Global()); err != nil {
			return false, nil
		}
		bootKey, err = client.Lookup(bootSegment(job))
		return err == nil, nil
	})
	if err != nil {
		return nil, err
	}
	b, err := attachJob(client, names, rank, n, elems, globalKey)
	if err != nil {
		return nil, err
	}
	boot, err := client.Attach(bootKey)
	if err != nil {
		return nil, err
	}

	// Ready-flag barrier: every rank marks its slot; rank 0 waits for all
	// of them and writes the go word, a start instant two polls ahead;
	// the others poll for it. Every rank then waits for that instant,
	// so a rank's poll phase does not decide when it starts: on one host
	// the ranks start together, and a rank that reads the word late only
	// starts late, never ahead of the master whose budget ends a
	// StopOnMaster job (Sec. III-E). Across hosts the skew is the clocks'
	// offset.
	if err := smb.WriteInt64(client, boot, rank, 1); err != nil {
		return nil, err
	}
	var start int64
	if rank == 0 {
		flags := make([]int64, n)
		err = await("barrier", func() (bool, error) {
			if err := smb.ReadInt64SlotsAt(client, boot, 0, flags); err != nil {
				return false, err
			}
			return !slices.Contains(flags, 0), nil
		})
		if err == nil {
			// Two polls let every other rank read the word in time; a
			// rank alone waits for no one.
			start = time.Now().UnixNano()
			if n > 1 {
				start += int64(2 * opts.PollInterval)
			}
			err = smb.WriteInt64(client, boot, n, start)
		}
	} else {
		err = await("barrier", func() (bool, error) {
			var err error
			start, err = smb.ReadInt64(client, boot, n)
			return start != 0, err
		})
	}
	if err != nil {
		return nil, err
	}
	if err := client.Detach(boot); err != nil {
		return nil, err
	}
	// Spin to the instant rather than sleep: on a loaded host a timer
	// wakes each rank up to milliseconds late, which would scatter the
	// start again. The spin lasts at most two polls.
	for time.Now().UnixNano() < start {
		runtime.Gosched()
	}
	return b, nil
}

// createJob is the master's half of the bootstrap: create Wg and the
// control segment, and seed Wg with initWeights so all replicas start
// from the same point (master worker "initializes parameter", Sec. III-A).
func createJob(client smb.Client, names smb.SegmentNames, n, elems int, initWeights []float32) error {
	if len(initWeights) != elems {
		return fmt.Errorf("setup %q: %d init weights for %d elements: %w",
			names.Job, len(initWeights), elems, ErrConfig)
	}
	key, err := client.Create(names.Global(), elems*4)
	if err != nil {
		return fmt.Errorf("create global: %w", err)
	}
	if _, err := client.Create(names.Control(), controlSize(n)); err != nil {
		return fmt.Errorf("create control: %w", err)
	}
	h, err := client.Attach(key)
	if err != nil {
		return fmt.Errorf("attach global for init: %w", err)
	}
	if err := client.Write(h, 0, tensor.Float32Bytes(initWeights)); err != nil {
		return fmt.Errorf("seed global: %w", err)
	}
	if err := client.Detach(h); err != nil {
		return fmt.Errorf("detach init handle: %w", err)
	}
	return nil
}

// attachJob is every rank's half of the bootstrap: attach Wg, create and
// attach this rank's ΔWx, attach the control segment, and build the
// JobBuffers around them.
func attachJob(client smb.Client, names smb.SegmentNames, rank, n, elems int, globalKey smb.SHMKey) (*JobBuffers, error) {
	global, err := client.Attach(globalKey)
	if err != nil {
		return nil, fmt.Errorf("attach global: %w", err)
	}
	incrKey, err := client.Create(names.Increment(rank), elems*4)
	if err != nil {
		return nil, fmt.Errorf("create increment: %w", err)
	}
	incr, err := client.Attach(incrKey)
	if err != nil {
		return nil, fmt.Errorf("attach increment: %w", err)
	}
	ctlKey, err := client.Lookup(names.Control())
	if err != nil {
		return nil, fmt.Errorf("lookup control: %w", err)
	}
	control, err := client.Attach(ctlKey)
	if err != nil {
		return nil, fmt.Errorf("attach control: %w", err)
	}
	return &JobBuffers{
		client:  client,
		rank:    rank,
		n:       n,
		elems:   elems,
		global:  global,
		incr:    incr,
		control: control,
	}, nil
}
