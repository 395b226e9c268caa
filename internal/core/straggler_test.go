package core

import (
	"sync"
	"testing"
	"time"

	"shmcaffe/internal/dataset"
)

// slowDataset wraps a dataset with a per-sample delay, modeling the
// "deviations in computation time between deep learning workers" of
// Sec. III-E (shared bus, file I/O, network contention).
type slowDataset struct {
	dataset.Dataset
	delay time.Duration
}

func (s *slowDataset) Sample(i int, x []float32) int {
	time.Sleep(s.delay)
	return s.Dataset.Sample(i, x)
}

// TestTerminationAlignmentWithStraggler: one worker is 5× slower. With
// StopOnMaster (master is fast), the straggler is cut off near the
// master's finish instead of running its full budget — the utilization
// win of Sec. III-E.
func TestTerminationAlignmentWithStraggler(t *testing.T) {
	job := newTestJob(t, 3, 31)
	stats := runWorkers(t, job, func(rank int, cfg *WorkerConfig) {
		cfg.Termination = StopOnMaster
		cfg.MaxIterations = 30
		if rank == 2 {
			// Rebuild rank 2's loader over a slowed shard.
			shard, err := dataset.NewShard(job.ds, 2, 3)
			if err != nil {
				t.Fatal(err)
			}
			loader, err := dataset.NewLoader(&slowDataset{Dataset: shard, delay: 500 * time.Microsecond}, 16, 99)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Loader = loader
		}
	})
	if stats[0].Iterations < 30 {
		t.Fatalf("master stopped early: %d", stats[0].Iterations)
	}
	// The straggler must not have completed anywhere near its own budget
	// beyond the master's; alignment cut it off.
	if stats[2].Iterations > 3*stats[0].Iterations {
		t.Fatalf("straggler ran %d iterations vs master %d — alignment failed",
			stats[2].Iterations, stats[0].Iterations)
	}
	if stats[2].StoppedBy == "budget" {
		t.Fatalf("straggler stopped by %q, expected alignment", stats[2].StoppedBy)
	}
}

// TestProgressCountersVisibleAcrossWorkers: the control segment exposes
// every worker's iteration count to every other worker.
func TestProgressCountersVisibleAcrossWorkers(t *testing.T) {
	job := newTestJob(t, 2, 32)
	var once sync.Once
	var observed []int64
	stats := runWorkers(t, job, func(rank int, cfg *WorkerConfig) {
		if rank != 0 {
			return
		}
		cfg.Hook = func(w *Worker, iter int) error {
			if iter == 20 {
				once.Do(func() {
					// The ranks start at one instant, but on a loaded
					// host either may run its whole job before the other
					// gets a CPU; hold the master here until the peer
					// has published a count, or give up after 10 s.
					deadline := time.Now().Add(10 * time.Second)
					for {
						p, err := w.Buffers().Progress()
						if err != nil {
							t.Error(err)
							return
						}
						if p[1] != 0 || time.Now().After(deadline) {
							observed = append(observed, p...)
							return
						}
						time.Sleep(time.Millisecond)
					}
				})
			}
			return nil
		}
	})
	if len(observed) != 2 {
		t.Fatalf("observed %v", observed)
	}
	if observed[0] < 20 {
		t.Fatalf("own progress %d < 20", observed[0])
	}
	// The other worker, running concurrently, must have published some
	// progress while the master waited.
	if observed[1] == 0 && stats[1].Iterations > 0 {
		t.Fatalf("peer progress invisible: %v (peer ran %d)", observed, stats[1].Iterations)
	}
}
