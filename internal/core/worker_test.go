package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"shmcaffe/internal/dataset"
	"shmcaffe/internal/nn"
	"shmcaffe/internal/smb"
	"shmcaffe/internal/tensor"
)

// testJob builds the shared fixtures for an n-worker SEASGD run over the
// Gaussian corpus with small MLP replicas.
type testJob struct {
	store  *smb.Store
	ds     *dataset.InMemory
	nets   []*nn.Network
	trains []*dataset.Loader
}

func newTestJob(t *testing.T, n int, seed uint64) *testJob {
	t.Helper()
	ds, err := dataset.NewGaussian(dataset.GaussianConfig{
		Classes: 4, PerClass: 40, Shape: []int{8}, Noise: 0.25, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	job := &testJob{store: smb.NewStore(), ds: ds}
	for r := 0; r < n; r++ {
		net, err := nn.MLP(fmt.Sprintf("w%d", r), 8, 16, 4)
		if err != nil {
			t.Fatal(err)
		}
		net.InitWeights(tensor.NewRNG(seed)) // identical start everywhere
		shard, err := dataset.NewShard(ds, r, n)
		if err != nil {
			t.Fatal(err)
		}
		loader, err := dataset.NewLoader(shard, 16, seed+uint64(r))
		if err != nil {
			t.Fatal(err)
		}
		job.nets = append(job.nets, net)
		job.trains = append(job.trains, loader)
	}
	return job
}

func (j *testJob) workerConfig(t *testing.T, rank int, jobName string) WorkerConfig {
	t.Helper()
	solver := nn.DefaultSolverConfig()
	solver.BaseLR = 0.05
	return WorkerConfig{
		Job:           jobName,
		Client:        smb.NewLocalClient(j.store),
		Net:           j.nets[rank],
		Solver:        solver,
		Elastic:       DefaultElasticConfig(),
		Termination:   StopIndependently,
		MaxIterations: 40,
		Loader:        j.trains[rank],
	}
}

// newWorker bootstraps rank of the job's world on its store.
func (j *testJob) newWorker(cfg WorkerConfig, rank int) (*Worker, error) {
	return NewWorkerPolling(cfg, rank, len(j.nets), BootstrapOptions{})
}

// runWorkers constructs and runs all workers concurrently.
func runWorkers(t *testing.T, job *testJob, mutate func(rank int, cfg *WorkerConfig)) []*RunStats {
	t.Helper()
	stats, errs := runWorkersAllowFail(t, job, mutate)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return stats
}

func TestWorkerConfigValidate(t *testing.T) {
	var cfg WorkerConfig
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected error for empty config")
	}
}

func TestSingleWorkerTrainsAndPushes(t *testing.T) {
	job := newTestJob(t, 1, 1)
	stats := runWorkers(t, job, nil)
	s := stats[0]
	if s.Iterations != 40 {
		t.Fatalf("iterations %d, want 40", s.Iterations)
	}
	if s.Pushes == 0 {
		t.Fatal("no global pushes recorded")
	}
	first, last := s.LossHistory[0], s.LossHistory[len(s.LossHistory)-1]
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

// TestMultiWorkerConvergesAndGlobalIsUseful: after a 4-worker SEASGD run,
// the global weight Wg evaluates well on held-out data — the fundamental
// claim that asynchronous elastic averaging through a dumb shared buffer
// trains the model.
func TestMultiWorkerConvergesAndGlobalIsUseful(t *testing.T) {
	job := newTestJob(t, 4, 2)
	runWorkers(t, job, nil)

	// Read Wg and load it into a fresh evaluation replica.
	client := smb.NewLocalClient(job.store)
	key, err := client.Lookup(smb.SegmentNames{Job: "job"}.Global())
	if err != nil {
		t.Fatal(err)
	}
	h, err := client.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	elems := job.nets[0].NumParams()
	buf := make([]byte, elems*4)
	if err := client.Read(h, 0, buf); err != nil {
		t.Fatal(err)
	}
	wg, err := tensor.Float32FromBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	evalNet, err := nn.MLP("eval", 8, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := evalNet.SetFlatWeights(wg); err != nil {
		t.Fatal(err)
	}
	// Evaluate over the full corpus.
	loader, err := dataset.NewLoader(job.ds, 64, 99)
	if err != nil {
		t.Fatal(err)
	}
	var accSum float64
	const batches = 3
	for i := 0; i < batches; i++ {
		b := loader.Next()
		_, acc, err := evalNet.Evaluate(b.X, b.Labels, 1)
		if err != nil {
			t.Fatal(err)
		}
		accSum += acc
	}
	if avg := accSum / batches; avg < 0.6 {
		t.Fatalf("global weight top-1 accuracy %.2f < 0.6", avg)
	}
}

func TestWorkerOverlapPushCount(t *testing.T) {
	job := newTestJob(t, 2, 3)
	stats := runWorkers(t, job, nil)
	for _, s := range stats {
		// update_interval 1 → one push per iteration (the final push may
		// still be in flight at shutdown, so allow iterations or
		// iterations±1).
		if s.Pushes < s.Iterations-1 || s.Pushes > s.Iterations {
			t.Fatalf("rank %d: %d pushes for %d iterations", s.Rank, s.Pushes, s.Iterations)
		}
	}
}

func TestWorkerUpdateInterval(t *testing.T) {
	job := newTestJob(t, 2, 4)
	stats := runWorkers(t, job, func(_ int, cfg *WorkerConfig) {
		cfg.Elastic.UpdateInterval = 4
	})
	for _, s := range stats {
		want := (s.Iterations + 3) / 4
		if s.Pushes < want-1 || s.Pushes > want {
			t.Fatalf("rank %d: %d pushes for %d iterations at interval 4", s.Rank, s.Pushes, s.Iterations)
		}
	}
}

func TestWorkerDisableOverlapAblation(t *testing.T) {
	job := newTestJob(t, 2, 5)
	stats := runWorkers(t, job, func(_ int, cfg *WorkerConfig) {
		cfg.DisableOverlap = true
	})
	for _, s := range stats {
		if s.Pushes != s.Iterations {
			t.Fatalf("inline pushes %d != iterations %d", s.Pushes, s.Iterations)
		}
		if s.LossHistory[len(s.LossHistory)-1] >= s.LossHistory[0] {
			t.Fatal("no-overlap run did not learn")
		}
	}
}

func TestWorkerHideGlobalReadAblation(t *testing.T) {
	job := newTestJob(t, 2, 6)
	stats := runWorkers(t, job, func(_ int, cfg *WorkerConfig) {
		cfg.HideGlobalRead = true
	})
	for _, s := range stats {
		if s.Iterations != 40 {
			t.Fatalf("iterations %d", s.Iterations)
		}
	}
}

// TestStopOnFirstAlignsWorkers: with the "first finisher" criterion every
// worker ends promptly once any worker hits the budget; no worker runs to
// the hard cap.
func TestStopOnFirstAlignsWorkers(t *testing.T) {
	job := newTestJob(t, 3, 7)
	stats := runWorkers(t, job, func(_ int, cfg *WorkerConfig) {
		cfg.Termination = StopOnFirst
	})
	reached := false
	for _, s := range stats {
		if s.Iterations >= 40 {
			reached = true
		}
		if s.Iterations > 80 {
			t.Fatalf("rank %d ran %d iterations — alignment failed", s.Rank, s.Iterations)
		}
	}
	if !reached {
		t.Fatal("no worker reached the budget")
	}
}

func TestStopOnMasterAlignsWorkers(t *testing.T) {
	job := newTestJob(t, 3, 8)
	stats := runWorkers(t, job, func(_ int, cfg *WorkerConfig) {
		cfg.Termination = StopOnMaster
	})
	if stats[0].Iterations < 40 {
		t.Fatalf("master stopped at %d < budget", stats[0].Iterations)
	}
	for _, s := range stats {
		if s.Iterations > 200 {
			t.Fatalf("rank %d ran away: %d iterations", s.Rank, s.Iterations)
		}
	}
}

// TestLeaderPausesPastAWholeBudget: a StopOnMaster check that finds its
// participant more than a budget ahead of a silent master sleeps leadPause
// and keeps going; the master's own check does not stop it either.
func TestLeaderPausesPastAWholeBudget(t *testing.T) {
	_, bufs := setupPair(t, "lead/pause")
	const budget = 2
	leader := newExchange(bufs[1], DefaultElasticConfig(), StopOnMaster, budget, 0, nil)
	t0 := time.Now()
	stop, _, err := leader.finishIteration(budget + 1)
	if err != nil || stop {
		t.Fatalf("leader check = stop %v, err %v; want keep going", stop, err)
	}
	if d := time.Since(t0); d < leadPause {
		t.Fatalf("leader check returned after %v, want a pause of at least %v", d, leadPause)
	}
	master := newExchange(bufs[0], DefaultElasticConfig(), StopOnMaster, budget, 0, nil)
	if stop, by, err := master.finishIteration(budget); err != nil || !stop || by != "master" {
		t.Fatalf("master check = stop %v by %q, err %v; want the master's stop", stop, by, err)
	}
}

func TestStopOnAverage(t *testing.T) {
	job := newTestJob(t, 3, 9)
	stats := runWorkers(t, job, func(_ int, cfg *WorkerConfig) {
		cfg.Termination = StopOnAverage
	})
	var sum int
	for _, s := range stats {
		sum += s.Iterations
	}
	if sum < 3*40-6 {
		t.Fatalf("total iterations %d below average target", sum)
	}
}

// TestSetupBuffersLayout verifies the Fig. 5 segment family exists after
// bootstrap: Wg, per-worker ΔWx, control.
func TestSetupBuffersLayout(t *testing.T) {
	job := newTestJob(t, 3, 10)
	runWorkers(t, job, nil)
	client := smb.NewLocalClient(job.store)
	names := smb.SegmentNames{Job: "job"}
	if _, err := client.Lookup(names.Global()); err != nil {
		t.Fatalf("global segment missing: %v", err)
	}
	if _, err := client.Lookup(names.Control()); err != nil {
		t.Fatalf("control segment missing: %v", err)
	}
	for r := 0; r < 3; r++ {
		if _, err := client.Lookup(names.Increment(r)); err != nil {
			t.Fatalf("increment segment %d missing: %v", r, err)
		}
	}
}

// TestAccumulateStatsMatchPushes: the number of server-side accumulates
// equals the sum of worker pushes — no lost or duplicated updates.
func TestAccumulateStatsMatchPushes(t *testing.T) {
	job := newTestJob(t, 3, 11)
	stats := runWorkers(t, job, nil)
	var pushes int64
	for _, s := range stats {
		pushes += int64(s.Pushes)
	}
	if got := job.store.Stats().Accumulates; got != pushes {
		t.Fatalf("server saw %d accumulates, workers pushed %d", got, pushes)
	}
}

// TestWorkerHookErrorAborts: a failing hook aborts training cleanly.
func TestWorkerHookErrorAborts(t *testing.T) {
	job := newTestJob(t, 1, 71)
	boom := errors.New("boom")
	stats := make([]*RunStats, 1)
	cfg := job.workerConfig(t, 0, "hookfail")
	cfg.Hook = func(w *Worker, iter int) error {
		if iter == 3 {
			return boom
		}
		return nil
	}
	w, err := job.newWorker(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	stats[0], err = w.Run()
	if !errors.Is(err, boom) {
		t.Fatalf("want hook error, got %v", err)
	}
	if stats[0] != nil {
		t.Fatal("stats returned despite error")
	}
}

// TestWorkerHideGlobalReadUsesCachedCopy: in the ablation mode, the first
// exchange sees the initial Wg even after another worker changed it,
// demonstrating the staleness the paper avoids.
func TestWorkerTerminationFlagPreempts(t *testing.T) {
	job := newTestJob(t, 2, 72)
	stats := runWorkers(t, job, func(rank int, cfg *WorkerConfig) {
		cfg.Termination = StopOnFirst
		cfg.MaxIterations = 1000
		if rank == 0 {
			cfg.Hook = func(w *Worker, iter int) error {
				if iter == 5 {
					return w.Buffers().SignalStop()
				}
				return nil
			}
		}
	})
	for _, s := range stats {
		if s.Iterations > 400 {
			t.Fatalf("flag did not preempt: %d iterations", s.Iterations)
		}
	}
}
