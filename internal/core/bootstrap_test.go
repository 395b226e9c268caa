package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"shmcaffe/internal/smb"
	"shmcaffe/internal/telemetry"
)

// TestPollingBootstrapTrains forms a 3-worker job with nothing but the SMB
// store for rendezvous and verifies every rank trains and pushes.
func TestPollingBootstrapTrains(t *testing.T) {
	job := newTestJob(t, 3, 51)
	opts := BootstrapOptions{PollInterval: time.Millisecond, Timeout: 10 * time.Second}

	stats := make([]*RunStats, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := job.workerConfig(t, r, "pjob")
			cfg.MaxIterations = 30
			w, err := NewWorkerPolling(cfg, r, 3, opts)
			if err != nil {
				errs[r] = err
				return
			}
			stats[r], errs[r] = w.Run()
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for _, s := range stats {
		if s.Iterations != 30 || s.Pushes == 0 {
			t.Fatalf("stats %+v", s)
		}
	}
	// The boot barrier segment exists alongside the Fig. 5 family.
	client := smb.NewLocalClient(job.store)
	if _, err := client.Lookup(bootSegment("pjob")); err != nil {
		t.Fatalf("boot segment missing: %v", err)
	}
}

func TestPollingBootstrapValidation(t *testing.T) {
	job := newTestJob(t, 1, 52)
	cfg := job.workerConfig(t, 0, "v")
	if _, err := NewWorkerPolling(cfg, 0, 0, BootstrapOptions{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig for world 0, got %v", err)
	}
	if _, err := NewWorkerPolling(cfg, 2, 2, BootstrapOptions{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig for rank 2 of 2, got %v", err)
	}
}

// tracingClient is a full smb.Client (the embedded one) that records the
// trace contexts handed to it, modeling the supervised TCP client
// multi-process workers actually use.
type tracingClient struct {
	smb.Client
	sets, clears int
	last         smb.TraceContext
}

func (c *tracingClient) SetTraceContext(tc smb.TraceContext) { c.sets++; c.last = tc }
func (c *tracingClient) ClearTraceContext()                  { c.clears++ }

// TestBootstrapCapturesCarrier: the bootstrap builds its JobBuffers around
// the caller's client, and a traced push hands its context to that client.
// The polling bootstrap once had its own copy that dropped the trace
// surface, so every multi-process worker ran untraced and the merged fleet
// trace had zero cross-node chains.
func TestBootstrapCapturesCarrier(t *testing.T) {
	job := newTestJob(t, 1, 54)
	elems := job.nets[0].NumParams()
	weights := make([]float32, elems)
	tel := telemetry.NewTrainer(telemetry.NewRegistry(), 64)
	client := &tracingClient{Client: smb.NewLocalClient(job.store)}
	opts := BootstrapOptions{PollInterval: time.Millisecond, Timeout: 10 * time.Second}
	bufs, err := SetupBuffersPolling(client, "carrier", 0, 1, elems, weights, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := bufs.pushTraced(tel, 1, 7, weights); err != nil {
		t.Fatal(err)
	}
	if client.sets != 1 || client.clears != 1 || client.last.TraceID == 0 || client.last.Iter != 7 {
		t.Errorf("traced push made %d sets / %d clears with context %+v, want one stamped push",
			client.sets, client.clears, client.last)
	}
	// Telemetry off: the client is never asked to stamp.
	if err := bufs.pushTraced(nil, 1, 8, weights); err != nil {
		t.Fatal(err)
	}
	if client.sets != 1 {
		t.Error("an untraced push stamped a context")
	}
}

// TestPollingBootstrapTimesOutWithoutMaster: a non-master rank alone must
// fail with a rendezvous timeout, not hang.
func TestPollingBootstrapTimesOutWithoutMaster(t *testing.T) {
	job := newTestJob(t, 2, 53)
	cfg := job.workerConfig(t, 1, "orphan")
	opts := BootstrapOptions{PollInterval: time.Millisecond, Timeout: 50 * time.Millisecond}
	if _, err := NewWorkerPolling(cfg, 1, 2, opts); !errors.Is(err, ErrConfig) {
		t.Fatalf("want timeout error, got %v", err)
	}
}
