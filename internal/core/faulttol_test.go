package core

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"shmcaffe/internal/dataset"
	"shmcaffe/internal/faults"
	"shmcaffe/internal/smb"
)

// Crash-aware termination alignment (Sec. III-E under failures) and the
// end-to-end fault-injection acceptance run.

// runWorkersAllowFail is runWorkers for tests where some ranks are EXPECTED
// to fail: it returns per-rank stats and errors instead of failing the test.
func runWorkersAllowFail(t *testing.T, job *testJob, mutate func(rank int, cfg *WorkerConfig)) ([]*RunStats, []error) {
	t.Helper()
	n := job.world.Size()
	stats := make([]*RunStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := job.workerConfig(t, r, "job")
			if mutate != nil {
				mutate(r, &cfg)
			}
			w, err := NewWorker(cfg)
			if err != nil {
				errs[r] = err
				return
			}
			stats[r], errs[r] = w.Run()
		}()
	}
	wg.Wait()
	return stats, errs
}

var errInjectedCrash = errors.New("injected worker crash")

func hasRank(ranks []int, want int) bool {
	for _, r := range ranks {
		if r == want {
			return true
		}
	}
	return false
}

// holdUntilDead returns a survivor Hook that parks iteration 0 until rank
// dead's tombstone is in the heartbeat table, so every survivor's first
// termination check already sees it. Without the hold a starved crasher can
// die after the survivors have reached their target and stopped — nobody
// was left to see the tombstone, and DeadPeers comes back empty. (Survivors
// need not wait for each other: a survivor stopped by a peer's flag observes
// the heartbeats of the same read first, see TestFlagStopSeesTombstone.)
func holdUntilDead(dead int) func(w *Worker, iter int) error {
	return func(w *Worker, iter int) error {
		if iter != 0 {
			return nil
		}
		beats := make([]int64, w.Buffers().WorldSize())
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			if err := w.Buffers().HeartbeatsInto(beats); err != nil || beats[dead] == DeadTombstone {
				return err
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("rank %d never reported dead", dead)
			}
		}
	}
}

// TestLivenessTrackerStaleness drives the tracker with a fake clock:
// advancing beats keep a worker alive, a frozen beat kills it after the
// timeout, a tombstone kills it immediately, and death is permanent.
func TestLivenessTrackerStaleness(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	tr := newLivenessTracker(0, 3, 100*time.Millisecond, clock)

	alive := tr.observe([]int64{1, 1, 1})
	if !alive[0] || !alive[1] || !alive[2] {
		t.Fatalf("fresh beats: alive = %v, want all true", alive)
	}

	// Rank 1's beat freezes; rank 2 keeps beating.
	now = now.Add(60 * time.Millisecond)
	alive = tr.observe([]int64{1, 1, 2})
	if !alive[1] {
		t.Fatalf("60ms stale < 100ms timeout, but rank 1 declared dead")
	}
	now = now.Add(60 * time.Millisecond)
	alive = tr.observe([]int64{1, 1, 3})
	if alive[1] {
		t.Fatal("rank 1 stale 120ms > 100ms timeout, still alive")
	}
	if !alive[2] {
		t.Fatal("rank 2 kept beating but was declared dead")
	}

	// Death is permanent even if the beat starts moving again.
	now = now.Add(time.Millisecond)
	alive = tr.observe([]int64{1, 99, 4})
	if alive[1] {
		t.Fatal("dead rank 1 resurrected by a late beat")
	}
	// Self never dies, however stale its own slot looks.
	now = now.Add(time.Hour)
	alive = tr.observe([]int64{1, 99, 5})
	if !alive[0] {
		t.Fatal("self declared dead")
	}
	if got := tr.deadRanks(nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("deadRanks = %v, want [1]", got)
	}
}

func TestLivenessTrackerTombstone(t *testing.T) {
	tr := newLivenessTracker(0, 2, 0, nil) // zero timeout: tombstones only
	alive := tr.observe([]int64{5, deadTombstone})
	if alive[1] {
		t.Fatal("tombstone not observed")
	}
	// With staleness disabled, a frozen (non-tombstone) beat never kills.
	alive = tr.observe([]int64{5, deadTombstone})
	if !alive[0] {
		t.Fatal("rank 0 declared dead with staleness disabled")
	}
}

func TestShouldStopAlive(t *testing.T) {
	progress := []int64{2, 30, 30}
	deadMaster := []bool{false, true, true}
	// Dead master: the lowest live rank becomes the progress reference.
	if !StopOnMaster.ShouldStopAlive(progress, deadMaster, 30) {
		t.Fatal("master dead, re-elected reference at target, want stop")
	}
	if StopOnMaster.ShouldStopAlive([]int64{2, 10, 30}, deadMaster, 30) {
		t.Fatal("re-elected reference below target, want keep running")
	}
	// StopOnAverage: the dead worker's frozen counter must not drag the
	// mean — [2, 30, 30] averages 20.7 with the corpse, 30 without.
	if !StopOnAverage.ShouldStopAlive(progress, deadMaster, 30) {
		t.Fatal("live mean at target, want stop")
	}
	if StopOnAverage.ShouldStopAlive(progress, nil, 30) {
		t.Fatal("nil alive view must reproduce the fault-free average")
	}
	// StopOnFirst ignores liveness: counters are monotone.
	if !StopOnFirst.ShouldStopAlive(progress, deadMaster, 30) {
		t.Fatal("some counter at target, want stop")
	}
	// Everyone dead: nothing left to wait for.
	if !StopOnAverage.ShouldStopAlive([]int64{1, 1}, []bool{false, false}, 30) {
		t.Fatal("all dead, want stop")
	}
}

// TestMasterCrashSurvivorsReElect: with StopOnMaster the seed's protocol
// freezes the job forever when the master dies below target (its counter
// never reaches it). With liveness the survivors re-elect the lowest live
// rank as the reference and terminate on schedule.
func TestMasterCrashSurvivorsReElect(t *testing.T) {
	const maxIters = 30
	job := newTestJob(t, 3, 17)
	hold := holdUntilDead(0)
	stats, errs := runWorkersAllowFail(t, job, func(rank int, cfg *WorkerConfig) {
		cfg.Termination = StopOnMaster
		cfg.MaxIterations = maxIters
		cfg.LivenessTimeout = 10 * time.Second // tombstone path only: deterministic
		cfg.Hook = hold
		if rank == 0 {
			cfg.Hook = func(w *Worker, iter int) error {
				if iter >= 2 {
					return errInjectedCrash
				}
				return nil
			}
		}
	})
	if !errors.Is(errs[0], errInjectedCrash) {
		t.Fatalf("rank 0 error = %v, want injected crash", errs[0])
	}
	for r := 1; r < 3; r++ {
		if errs[r] != nil {
			t.Fatalf("survivor %d failed: %v", r, errs[r])
		}
		// Below the hard cap (MaxIterations*100): the survivors did not spin
		// waiting for a master that will never finish. How far below is the
		// scheduler's business — survivor 2 runs until survivor 1, the
		// re-elected reference, gets the CPU time for its 30.
		if stats[r].Iterations >= maxIters*100 {
			t.Fatalf("survivor %d ran %d iterations — termination never re-aligned", r, stats[r].Iterations)
		}
		if !hasRank(stats[r].DeadPeers, 0) {
			t.Fatalf("survivor %d dead peers = %v, want [0]", r, stats[r].DeadPeers)
		}
	}
}

// TestAverageExcludesDeadWorker: under StopOnAverage a crashed worker's
// frozen counter must not make the survivors grind out its unfinished
// share. With exclusion the three survivors need ~target iterations each;
// without it they would need ~(4*target - crashpoint)/3.
func TestAverageExcludesDeadWorker(t *testing.T) {
	const target = 30
	job := newTestJob(t, 4, 23)
	stats, errs := runWorkersAllowFail(t, job, func(rank int, cfg *WorkerConfig) {
		cfg.Termination = StopOnAverage
		cfg.MaxIterations = target
		cfg.LivenessTimeout = 10 * time.Second
		if rank == 3 {
			cfg.Hook = func(w *Worker, iter int) error {
				if iter >= 3 {
					return errInjectedCrash
				}
				return nil
			}
		}
	})
	if !errors.Is(errs[3], errInjectedCrash) {
		t.Fatalf("rank 3 error = %v, want injected crash", errs[3])
	}
	var sum int
	for r := 0; r < 3; r++ {
		if errs[r] != nil {
			t.Fatalf("survivor %d failed: %v", r, errs[r])
		}
		if !hasRank(stats[r].DeadPeers, 3) {
			t.Fatalf("survivor %d dead peers = %v, want [3]", r, stats[r].DeadPeers)
		}
		sum += stats[r].Iterations
	}
	// Alive-only mean >= target needs sum >= 3*target; without exclusion
	// the predicate would demand sum >= 4*target - 4 (the corpse's 4
	// iterations). The margin between proves the corpse was excluded.
	if sum < 3*target {
		t.Fatalf("survivors stopped early: Σ=%d < %d", sum, 3*target)
	}
	if sum >= 4*target-10 {
		t.Fatalf("survivors ran Σ=%d iterations — dead worker's share was not excluded", sum)
	}
}

// failingLabels serves healthy samples until a budget is spent, then
// returns out-of-range labels — TrainStep fails, modelling a member whose
// replica goes bad mid-run.
type failingLabels struct {
	dataset.Dataset
	mu      sync.Mutex
	healthy int
}

func (d *failingLabels) Sample(i int, x []float32) int {
	lbl := d.Dataset.Sample(i, x)
	d.mu.Lock()
	d.healthy--
	bad := d.healthy < 0
	d.mu.Unlock()
	if bad {
		return 1 << 20
	}
	return lbl
}

// TestHybridGroupShrinksPastFailedMember: a non-root member failing mid-run
// no longer kills the whole group (the seed aborted the NCCL group): the
// ring shrinks past it, the survivors finish the budget, and the failure is
// recorded.
func TestHybridGroupShrinksPastFailedMember(t *testing.T) {
	configs, _, ds := buildHybridJob(t, 1, 4, 29)
	shard, err := dataset.NewShard(ds, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := dataset.NewLoader(&failingLabels{Dataset: shard, healthy: 5 * 8}, 8, 77)
	if err != nil {
		t.Fatal(err)
	}
	configs[0].Loaders[2] = loader

	g, err := NewHybridGroup(configs[0])
	if err != nil {
		t.Fatal(err)
	}
	stats, err := g.Run()
	if err != nil {
		t.Fatalf("group run failed despite member shrink: %v", err)
	}
	if len(stats.FailedMembers) != 1 || stats.FailedMembers[0] != 2 {
		t.Fatalf("failed members = %v, want [2]", stats.FailedMembers)
	}
	if stats.Iterations != configs[0].MaxIterations {
		t.Fatalf("survivors ran %d iterations, want the full budget %d",
			stats.Iterations, configs[0].MaxIterations)
	}
	if stats.Pushes == 0 {
		t.Fatal("root pushed nothing after the shrink")
	}
}

// TestFaultyTrainingRunAcceptance is the issue's acceptance scenario: four
// workers train over TCP through connections dropping ~5% of operations,
// the SMB server crashes and restarts once mid-run, and one worker crashes
// for good. The survivors must converge on an aligned stop, and every
// retried push must have applied exactly once: the store's accumulate
// counter equals the sum of the clients' applied-push counters.
func TestFaultyTrainingRunAcceptance(t *testing.T) {
	const (
		n      = 4
		target = 25
	)
	store := smb.NewStore()
	rs, err := faults.NewRestartableServer("127.0.0.1:0", func(addr string) (faults.Frontend, error) {
		srv, err := smb.NewServer(store, addr)
		if err != nil {
			return nil, err
		}
		return srv, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	injs := make([]*faults.Injector, n)
	clients := make([]*smb.SupervisedClient, n)
	for r := 0; r < n; r++ {
		r := r
		injs[r] = faults.New(faults.Config{DropRate: 0.05, Seed: uint64(100 + r)})
		clients[r] = smb.NewSupervisedClient(smb.SupervisedConfig{
			Addr: rs.Addr(),
			Dial: func(addr string) (*smb.StreamClient, error) {
				nc, err := net.DialTimeout("tcp", addr, time.Second)
				if err != nil {
					return nil, fmt.Errorf("dial %s: %w: %w", addr, smb.ErrTransport, err)
				}
				return smb.NewStreamClient(injs[r].WrapConn(nc)), nil
			},
			OpTimeout:   2 * time.Second,
			MaxAttempts: 30,
			BackoffBase: time.Millisecond,
			BackoffMax:  20 * time.Millisecond,
			Seed:        uint64(1000 + r),
			ClientID:    uint64(r + 1), // multi-client job: rank-derived dedup identity
		})
	}

	job := newTestJob(t, n, 41)
	var restartOnce sync.Once
	stats, errs := runWorkersAllowFail(t, job, func(rank int, cfg *WorkerConfig) {
		cfg.Client = clients[rank]
		cfg.Termination = StopOnAverage
		cfg.MaxIterations = target
		cfg.LivenessTimeout = 10 * time.Second
		switch rank {
		case 0:
			cfg.Hook = func(w *Worker, iter int) error {
				if iter == 8 {
					restartOnce.Do(func() {
						if err := rs.Crash(); err != nil {
							t.Error(err)
						}
						if err := rs.Restart(); err != nil {
							t.Error(err)
						}
					})
				}
				return nil
			}
		case 3:
			cfg.Hook = func(w *Worker, iter int) error {
				if iter >= 5 {
					return errInjectedCrash
				}
				return nil
			}
		}
	})

	if !errors.Is(errs[3], errInjectedCrash) {
		t.Fatalf("rank 3 error = %v, want injected crash", errs[3])
	}
	for r := 0; r < 3; r++ {
		if errs[r] != nil {
			t.Fatalf("survivor %d failed: %v", r, errs[r])
		}
		if stats[r].StoppedBy == "budget" || stats[r].StoppedBy == "" {
			t.Fatalf("survivor %d stopped by %q, want an aligned stop", r, stats[r].StoppedBy)
		}
		if !hasRank(stats[r].DeadPeers, 3) {
			t.Fatalf("survivor %d dead peers = %v, want [3]", r, stats[r].DeadPeers)
		}
	}
	if rs.Crashes() != 1 {
		t.Fatalf("server crashes = %d, want 1", rs.Crashes())
	}
	var drops int64
	for _, inj := range injs {
		drops += inj.Stats().Drops
	}
	if drops == 0 {
		t.Fatal("no connection drops injected; the scenario exercised nothing")
	}

	// The exactly-once invariant. Every push (worker iteration exchange)
	// went through a sequence-stamped accumulate; however many times drops
	// and the restart forced retries, each must have folded into Wg once.
	var pushes int64
	for _, c := range clients {
		pushes += c.Stats().Pushes
	}
	if acc := store.Stats().Accumulates; acc != pushes {
		t.Fatalf("server accumulates = %d, client pushes = %d — a retry double-applied or a push was lost",
			acc, pushes)
	}
	for _, c := range clients {
		c.Close()
	}
}
