package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"shmcaffe/internal/dataset"
	"shmcaffe/internal/nn"
	"shmcaffe/internal/smb"
	"shmcaffe/internal/tensor"
)

// buildHybridJob creates nGroups groups of groupSize members each.
func buildHybridJob(t *testing.T, nGroups, groupSize int, seed uint64) (configs []HybridGroupConfig, store *smb.Store, ds *dataset.InMemory) {
	t.Helper()
	store = smb.NewStore()
	ds, err := dataset.NewGaussian(dataset.GaussianConfig{
		Classes: 4, PerClass: 40, Shape: []int{8}, Noise: 0.25, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	solver := nn.DefaultSolverConfig()
	solver.BaseLR = 0.05
	total := nGroups * groupSize
	for gi := 0; gi < nGroups; gi++ {
		cfg := HybridGroupConfig{
			Job:           "hjob",
			Client:        smb.NewLocalClient(store),
			Solver:        solver,
			Elastic:       DefaultElasticConfig(),
			Termination:   StopIndependently,
			MaxIterations: 30,
		}
		for m := 0; m < groupSize; m++ {
			net, err := nn.MLP(fmt.Sprintf("g%dm%d", gi, m), 8, 16, 4)
			if err != nil {
				t.Fatal(err)
			}
			net.InitWeights(tensor.NewRNG(seed))
			shard, err := dataset.NewShard(ds, gi*groupSize+m, total)
			if err != nil {
				t.Fatal(err)
			}
			loader, err := dataset.NewLoader(shard, 8, seed+uint64(gi*groupSize+m))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Nets = append(cfg.Nets, net)
			cfg.Loaders = append(cfg.Loaders, loader)
		}
		configs = append(configs, cfg)
	}
	return configs, store, ds
}

func runHybrid(t *testing.T, configs []HybridGroupConfig) []*GroupStats {
	t.Helper()
	stats := make([]*GroupStats, len(configs))
	errs := make([]error, len(configs))
	var wg sync.WaitGroup
	for i := range configs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := NewHybridGroup(configs[i], i, len(configs))
			if err != nil {
				errs[i] = err
				return
			}
			stats[i], errs[i] = g.Run()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("group %d: %v", i, err)
		}
	}
	return stats
}

func TestHybridConfigValidate(t *testing.T) {
	var cfg HybridGroupConfig
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected error for empty config")
	}
}

func TestHybridSingleGroupTrains(t *testing.T) {
	configs, _, _ := buildHybridJob(t, 1, 2, 1)
	stats := runHybrid(t, configs)
	s := stats[0]
	if s.Iterations != 30 {
		t.Fatalf("iterations %d, want 30", s.Iterations)
	}
	if s.Pushes == 0 {
		t.Fatal("root never pushed to SMB")
	}
	first := s.RootLossHistory[0]
	last := s.RootLossHistory[len(s.RootLossHistory)-1]
	if last >= first {
		t.Fatalf("hybrid loss did not decrease: %v -> %v", first, last)
	}
}

// TestHybridMembersStaySynchronized: after each broadcast the replicas of a
// group are identical; check final weights agree bit-for-bit.
func TestHybridMembersStaySynchronized(t *testing.T) {
	configs, _, _ := buildHybridJob(t, 1, 4, 2)
	runHybrid(t, configs)
	root := configs[0].Nets[0].FlatWeights(nil)
	for m := 1; m < 4; m++ {
		member := configs[0].Nets[m].FlatWeights(nil)
		for i := range root {
			if root[i] != member[i] {
				t.Fatalf("member %d weight %d = %v, root %v", m, i, member[i], root[i])
			}
		}
	}
}

// TestHybridTwoGroupsShareGlobal: two groups exchange through Wg; the
// global weight must be useful for classification afterwards.
func TestHybridTwoGroupsShareGlobal(t *testing.T) {
	configs, store, ds := buildHybridJob(t, 2, 2, 3)
	stats := runHybrid(t, configs)
	for _, s := range stats {
		if s.Iterations == 0 {
			t.Fatal("group did no work")
		}
	}
	client := smb.NewLocalClient(store)
	key, err := client.Lookup(smb.SegmentNames{Job: "hjob"}.Global())
	if err != nil {
		t.Fatal(err)
	}
	h, err := client.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	elems := configs[0].Nets[0].NumParams()
	buf := make([]byte, elems*4)
	if err := client.Read(h, 0, buf); err != nil {
		t.Fatal(err)
	}
	wgVals, err := tensor.Float32FromBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range wgVals {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("global weight diverged")
		}
	}
	evalNet, err := nn.MLP("eval", 8, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := evalNet.SetFlatWeights(wgVals); err != nil {
		t.Fatal(err)
	}
	loader, err := dataset.NewLoader(ds, 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	b := loader.Next()
	_, acc, err := evalNet.Evaluate(b.X, b.Labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.5 {
		t.Fatalf("hybrid global accuracy %.2f < 0.5", acc)
	}
}

// TestHybridReducesSMBTraffic: compared to pure SEASGD with the same total
// worker count, HSGD with groups of g issues 1/g of the accumulates — the
// communication saving of Sec. III-D.
func TestHybridReducesSMBTraffic(t *testing.T) {
	// Pure asynchronous: 4 independent workers.
	job := newTestJob(t, 4, 4)
	stats := runWorkers(t, job, func(_ int, cfg *WorkerConfig) {
		cfg.MaxIterations = 30
	})
	var asyncPushes int
	for _, s := range stats {
		asyncPushes += s.Pushes
	}

	// Hybrid: 2 groups × 2 members = same 4 workers.
	configs, hstore, _ := buildHybridJob(t, 2, 2, 4)
	hstats := runHybrid(t, configs)
	var hybridPushes int
	for _, s := range hstats {
		hybridPushes += s.Pushes
	}
	if hybridPushes*2 > asyncPushes+4 {
		t.Fatalf("hybrid pushes %d not ~half of async %d", hybridPushes, asyncPushes)
	}
	if got := hstore.Stats().Accumulates; got != int64(hybridPushes) {
		t.Fatalf("server accumulates %d != pushes %d", got, hybridPushes)
	}
}

func TestHybridTerminationStopOnFirst(t *testing.T) {
	configs, _, _ := buildHybridJob(t, 2, 2, 5)
	for i := range configs {
		configs[i].Termination = StopOnFirst
	}
	stats := runHybrid(t, configs)
	reached := false
	for _, s := range stats {
		if s.Iterations >= 30 {
			reached = true
		}
		if s.Iterations > 60 {
			t.Fatalf("group %d ran %d iterations", s.GroupRank, s.Iterations)
		}
	}
	if !reached {
		t.Fatal("no group reached the budget")
	}
}

// TestHybridHookErrorDoesNotDeadlock: a failing root hook aborts the NCCL
// group so sibling members unwind; Run returns the root cause instead of
// hanging at a barrier.
func TestHybridHookErrorDoesNotDeadlock(t *testing.T) {
	configs, _, _ := buildHybridJob(t, 1, 3, 9)
	boom := errors.New("hook boom")
	configs[0].Hook = func(g *HybridGroup, iter int) error {
		if iter == 2 {
			return boom
		}
		return nil
	}
	done := make(chan error, 1)
	go func() {
		g, err := NewHybridGroup(configs[0], 0, 1)
		if err != nil {
			done <- err
			return
		}
		_, err = g.Run()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("want hook error, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("hybrid group deadlocked on member failure")
	}
}

// TestHybridGroupsBootstrapOverServer: two groups share nothing but an SMB
// server. Each root dials it over TCP with its own supervised client and
// bootstraps by polling, the shape of one group per process. The master
// group runs its whole budget, the other stops through the aligned
// StopOnMaster stop, and every root push lands exactly once.
func TestHybridGroupsBootstrapOverServer(t *testing.T) {
	store := smb.NewStore()
	srv, err := smb.NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve()
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	configs, _, _ := buildHybridJob(t, 2, 2, 13)
	for gi := range configs {
		client := smb.NewSupervisedClient(smb.SupervisedConfig{Addr: srv.Addr(), ClientID: uint64(gi + 1)})
		defer client.Close()
		configs[gi].Client = client
		configs[gi].Termination = StopOnMaster
	}
	for _, rank := range []int{-1, 2} {
		if _, err := NewHybridGroup(configs[0], rank, 2); !errors.Is(err, ErrConfig) {
			t.Fatalf("rank %d of 2: want ErrConfig, got %v", rank, err)
		}
	}

	stats := make([]*GroupStats, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for gi := range configs {
		gi := gi
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := NewHybridGroup(configs[gi], gi, 2)
			if err != nil {
				errs[gi] = err
				return
			}
			stats[gi], errs[gi] = g.Run()
		}()
	}
	wg.Wait()
	var pushes int64
	for gi, err := range errs {
		if err != nil {
			t.Fatalf("group %d: %v", gi, err)
		}
		if stats[gi].StoppedBy == "budget" {
			t.Fatalf("group %d stopped by %q, want the master's aligned stop", gi, stats[gi].StoppedBy)
		}
		pushes += int64(stats[gi].Pushes)
	}
	if got, want := stats[0].Iterations, configs[0].MaxIterations; got != want {
		t.Fatalf("master group ran %d iterations, want its budget %d", got, want)
	}
	if acc := store.Stats().Accumulates; acc != pushes {
		t.Fatalf("server accumulates = %d, root pushes = %d", acc, pushes)
	}
}
