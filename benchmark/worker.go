package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// The worker child: one OS process running one real core.Worker against the
// launched smbserver. The harness re-executes itself with -child and a JSON
// config, so the worker is built from the same source as the driver and
// needs no cmd/* helper.

type workerChildConfig struct {
	Rank, World int
	Addr        string
	Transport   string
	Job         string
	Model       modelSpec
	Seed        uint64
	Warmup      int     // iterations before the measured window opens
	Seconds     float64 // measured window; rank 0 raises the stop flag when it closes
	TraceOut    string  // non-empty: record Fig. 6 spans and write them here
}

// workerResult is what the child reports on its last stdout line.
type workerResult struct {
	Rank       int
	Iterations int
	Pushes     int
	StoppedBy  string
	BootNs     int64   // bootstrap barrier passed
	Stamps     []int64 // UnixNano at the end of every iteration
	CompNs     int64   // RunStats.CompTime
	ExposedNs  int64   // RunStats.ExposedCommTime
	BlockedNs  int64   // RunStats.BlockedTime
	TailLoss   float64 // mean minibatch loss over the last tenth of the run
	PeakRSSMB  float64 // this process's VmHWM at exit

	TraceDropped  int64
	StalenessMean float64 // mean remote iterations between consecutive T1 reads (traced runs)
}

const workerResultPrefix = "RESULT "

// smbOpTimeout bounds every SMB operation of workers, driver and probes.
const smbOpTimeout = 10 * time.Second

func dialWorkerClient(transport, addr string, rank int) (smbClient, error) {
	return dialTransport(transport, dialOptions{
		Addr: addr, OpTimeout: smbOpTimeout,
		Seed: uint64(rank)*7919 + 1, ClientID: uint64(rank + 1),
	})
}

func runWorkerChild(raw string) error {
	var cfg workerChildConfig
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		return fmt.Errorf("worker config: %w", err)
	}
	client, err := dialWorkerClient(cfg.Transport, cfg.Addr, cfg.Rank)
	if err != nil {
		return err
	}
	defer client.Close()

	train, _, err := buildData(cfg.Model, cfg.Seed)
	if err != nil {
		return err
	}
	shard, err := newShard(train, cfg.Rank, cfg.World)
	if err != nil {
		return err
	}
	ld, err := newLoader(shard, cfg.Model.Batch, cfg.Seed+uint64(cfg.Rank)*7919)
	if err != nil {
		return err
	}
	net, err := buildNet(cfg.Model, fmt.Sprintf("w%d", cfg.Rank))
	if err != nil {
		return err
	}
	net.InitWeights(newRNG(cfg.Seed))

	var tel *trainer
	var reg *registry
	if cfg.TraceOut != "" {
		reg = newRegistry()
		tel = newTrainer(reg, 1<<19) // ≈8 spans per iteration: no wrap-around within a run
	}

	stamps := make([]int64, 0, 1<<16)
	var deadline int64
	signalled := false
	hook := func(w *worker, iter int) error {
		now := time.Now().UnixNano()
		stamps = append(stamps, now)
		if cfg.Rank != 0 || signalled {
			return nil
		}
		if iter+1 == cfg.Warmup {
			deadline = now + int64(cfg.Seconds*1e9)
		}
		if iter+1 < cfg.Warmup || now < deadline {
			return nil
		}
		// The master closes the window for everyone, once every peer has
		// finished its own warm-up: the shared stop flag ends all workers
		// within one iteration of each other, so no worker runs a tail
		// alone.
		progress, err := w.Buffers().Progress()
		if err != nil {
			return err
		}
		for _, done := range progress {
			if done < int64(cfg.Warmup) {
				return nil
			}
		}
		signalled = true
		return w.Buffers().SignalStop()
	}
	w, err := newWorkerPolling(workerConfig{
		Job:           cfg.Job,
		Client:        client,
		Net:           net,
		Solver:        solverFor(cfg.Model),
		Elastic:       elasticConfig{MovingRate: 0.2, UpdateInterval: updateInterval},
		Termination:   stopOnMaster,
		MaxIterations: 1 << 30, // the window, not a budget, ends the run
		Loader:        ld,
		Hook:          hook,
		Telemetry:     tel,
	}, cfg.Rank, cfg.World, bootstrapOptions{})
	if err != nil {
		return err
	}
	boot := time.Now().UnixNano()
	stats, err := w.Run()
	if err != nil {
		return err
	}

	res := workerResult{
		Rank: cfg.Rank, Iterations: stats.Iterations, Pushes: stats.Pushes, StoppedBy: stats.StoppedBy,
		BootNs: boot, Stamps: stamps,
		CompNs: int64(stats.CompTime), ExposedNs: int64(stats.ExposedCommTime), BlockedNs: int64(stats.BlockedTime),
	}
	tail := stats.LossHistory[len(stats.LossHistory)-len(stats.LossHistory)/10-1:]
	for _, l := range tail {
		res.TailLoss += l / float64(len(tail))
	}
	if tel != nil {
		if err := tel.Tracer.WriteChromeTraceFile(cfg.TraceOut); err != nil {
			return err
		}
		res.TraceDropped = tel.Tracer.Dropped()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			return err
		}
		samples, err := parsePrometheus(&buf)
		if err != nil {
			return err
		}
		sum, _ := promSampleValue(samples, serStaleness+"_sum", nil)
		if n, _ := promSampleValue(samples, serStaleness+"_count", nil); n > 0 {
			res.StalenessMean = sum / n
		}
	}
	if res.PeakRSSMB, err = peakRSSMB(os.Getpid()); err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(os.Stdout, "%s%s\n", workerResultPrefix, out)
	return err
}

// updateInterval is SEASGD's update_interval: one exchange per iteration,
// the paper's setting.
const updateInterval = 1
