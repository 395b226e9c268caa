package ps

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"shmcaffe/internal/core"
	"shmcaffe/internal/dataset"
	"shmcaffe/internal/nn"
	"shmcaffe/internal/smb"
	"shmcaffe/internal/tensor"
)

func TestServerPullPush(t *testing.T) {
	s := NewServer([]float32{1, 2, 3})
	dst := make([]float32, 3)
	if err := s.Pull(dst); err != nil {
		t.Fatal(err)
	}
	if dst[2] != 3 {
		t.Fatalf("pull %v", dst)
	}
	if err := s.PushGradient([]float32{1, 1, 1}, 0.5); err != nil {
		t.Fatal(err)
	}
	got := s.Snapshot()
	want := []float32{0.5, 1.5, 2.5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after push %v", got)
		}
	}
	pushes, pulls := s.Stats()
	if pushes != 1 || pulls != 1 {
		t.Fatalf("stats %d/%d", pushes, pulls)
	}
}

func TestServerSizeErrors(t *testing.T) {
	s := NewServer(make([]float32, 4))
	if err := s.Pull(make([]float32, 3)); !errors.Is(err, ErrSize) {
		t.Fatalf("want ErrSize, got %v", err)
	}
	if err := s.PushGradient(make([]float32, 5), 0.1); !errors.Is(err, ErrSize) {
		t.Fatalf("want ErrSize, got %v", err)
	}
	if err := s.ElasticExchange(make([]float32, 5), 0.2); !errors.Is(err, ErrSize) {
		t.Fatalf("want ErrSize, got %v", err)
	}
}

func TestElasticExchangeMatchesCoreMath(t *testing.T) {
	rng := tensor.NewRNG(1)
	const n = 64
	global := make([]float32, n)
	local := make([]float32, n)
	for i := 0; i < n; i++ {
		global[i] = float32(rng.NormFloat64())
		local[i] = float32(rng.NormFloat64())
	}
	// Reference: core's Eqs. (5)–(7).
	refLocal := append([]float32(nil), local...)
	refGlobal := append([]float32(nil), global...)
	scratch := make([]float32, n)
	if err := core.ElasticExchange(refLocal, refGlobal, scratch, 0.2); err != nil {
		t.Fatal(err)
	}
	// Parameter-server path: Eqs. (3)+(4).
	s := NewServer(global)
	if err := s.ElasticExchange(local, 0.2); err != nil {
		t.Fatal(err)
	}
	gotGlobal := s.Snapshot()
	for i := 0; i < n; i++ {
		if local[i] != refLocal[i] || gotGlobal[i] != refGlobal[i] {
			t.Fatalf("element %d: ps (%v,%v) vs core (%v,%v)",
				i, local[i], gotGlobal[i], refLocal[i], refGlobal[i])
		}
	}
}

// psFixture builds the worker inputs shared by the training tests.
func psFixture(t *testing.T, workers int, seed uint64) (*dataset.InMemory, []*nn.Network, []*dataset.Loader) {
	t.Helper()
	ds, err := dataset.NewGaussian(dataset.GaussianConfig{
		Classes: 4, PerClass: 40, Shape: []int{8}, Noise: 0.3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	nets := make([]*nn.Network, workers)
	loaders := make([]*dataset.Loader, workers)
	for r := 0; r < workers; r++ {
		nets[r], err = nn.MLP(fmt.Sprintf("w%d", r), 8, 16, 4)
		if err != nil {
			t.Fatal(err)
		}
		nets[r].InitWeights(tensor.NewRNG(seed))
		shard, err := dataset.NewShard(ds, r, workers)
		if err != nil {
			t.Fatal(err)
		}
		loaders[r], err = dataset.NewLoader(shard, 8, seed+uint64(r))
		if err != nil {
			t.Fatal(err)
		}
	}
	return ds, nets, loaders
}

func TestRunASGDConverges(t *testing.T) {
	_, nets, loaders := psFixture(t, 4, 2)
	server := NewServer(nets[0].FlatWeights(nil))
	solver := nn.DefaultSolverConfig()
	solver.BaseLR = 0.05
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for r := 0; r < 4; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[r] = RunASGD(WorkerConfig{
				Server: server, Net: nets[r], Solver: solver,
				Loader: loaders[r], MaxIterations: 40,
			})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Evaluate the global weights.
	evalNet, _ := nn.MLP("eval", 8, 16, 4)
	if err := evalNet.SetFlatWeights(server.Snapshot()); err != nil {
		t.Fatal(err)
	}
	ds, _, _ := psFixture(t, 1, 2)
	loader, _ := dataset.NewLoader(ds, 64, 99)
	b := loader.Next()
	_, acc, err := evalNet.Evaluate(b.X, b.Labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Fatalf("ASGD global accuracy %.2f", acc)
	}
}

func TestRunEASGDConverges(t *testing.T) {
	_, nets, loaders := psFixture(t, 4, 3)
	server := NewServer(nets[0].FlatWeights(nil))
	solver := nn.DefaultSolverConfig()
	solver.BaseLR = 0.05
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for r := 0; r < 4; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[r] = RunEASGD(WorkerConfig{
				Server: server, Net: nets[r], Solver: solver,
				Loader: loaders[r], MaxIterations: 40,
				Alpha: 0.2, ExchangeEvery: 1,
			})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range server.Snapshot() {
		if math.IsNaN(float64(v)) {
			t.Fatal("EASGD diverged")
		}
	}
}

// TestSEASGDMatchesEASGDSingleWorker is the central cross-validation of the
// reproduction: with one worker (no asynchrony), SEASGD through the SMB
// buffer (Eqs. 5–7) must produce *bit-identical* weights to classic EASGD
// through a parameter server (Eqs. 3–4), because the algebra is the same
// and the float32 encode/decode is lossless.
func TestSEASGDMatchesEASGDSingleWorker(t *testing.T) {
	const seed = 11
	const iters = 25

	buildNetAndLoader := func() (*nn.Network, *dataset.Loader) {
		ds, err := dataset.NewGaussian(dataset.GaussianConfig{
			Classes: 4, PerClass: 40, Shape: []int{8}, Noise: 0.3, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		net, err := nn.MLP("x", 8, 16, 4)
		if err != nil {
			t.Fatal(err)
		}
		net.InitWeights(tensor.NewRNG(seed))
		loader, err := dataset.NewLoader(ds, 8, seed)
		if err != nil {
			t.Fatal(err)
		}
		return net, loader
	}
	solver := nn.DefaultSolverConfig()
	solver.BaseLR = 0.05

	// Path A: classic EASGD against a parameter server.
	netA, loaderA := buildNetAndLoader()
	serverA := NewServer(netA.FlatWeights(nil))
	if _, err := RunEASGD(WorkerConfig{
		Server: serverA, Net: netA, Solver: solver, Loader: loaderA,
		MaxIterations: iters, Alpha: 0.2, ExchangeEvery: 1,
	}); err != nil {
		t.Fatal(err)
	}

	// Path B: SEASGD against an SMB store.
	netB, loaderB := buildNetAndLoader()
	worker, err := core.NewWorkerPolling(core.WorkerConfig{
		Job:    "equiv",
		Client: smb.NewLocalClient(smb.NewStore()),
		Net:    netB,
		Solver: solver,
		Elastic: core.ElasticConfig{
			MovingRate: 0.2, UpdateInterval: 1,
		},
		Termination:   core.StopIndependently,
		MaxIterations: iters,
		Loader:        loaderB,
		// Inline pushes keep the single worker fully deterministic.
		DisableOverlap: true,
	}, 0, 1, core.BootstrapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := worker.Run(); err != nil {
		t.Fatal(err)
	}

	wa := netA.FlatWeights(nil)
	wb := netB.FlatWeights(nil)
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("weight %d: EASGD %v vs SEASGD %v", i, wa[i], wb[i])
		}
	}
}

func TestWorkerConfigValidation(t *testing.T) {
	if _, err := RunASGD(WorkerConfig{}); err == nil {
		t.Fatal("expected error for empty config")
	}
	_, nets, loaders := psFixture(t, 1, 5)
	server := NewServer(make([]float32, 3)) // wrong size
	solver := nn.DefaultSolverConfig()
	cfg := WorkerConfig{Server: server, Net: nets[0], Solver: solver, Loader: loaders[0], MaxIterations: 5}
	if _, err := RunASGD(cfg); !errors.Is(err, ErrSize) {
		t.Fatalf("want ErrSize, got %v", err)
	}
	good := NewServer(nets[0].FlatWeights(nil))
	cfg.Server = good
	cfg.Alpha = 2
	if _, err := RunEASGD(cfg); err == nil {
		t.Fatal("expected error for alpha out of range")
	}
}

// TestConcurrentExchangesAtomic: concurrent elastic exchanges never tear
// the global vector (each exchange is atomic under the server lock).
func TestConcurrentExchangesAtomic(t *testing.T) {
	const n = 128
	s := NewServer(make([]float32, n))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]float32, n)
			for i := range local {
				local[i] = float32(w + 1)
			}
			for r := 0; r < 50; r++ {
				if err := s.ElasticExchange(local, 0.3); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	// All elements of the global vector must be equal: every exchange
	// applies the same delta to all coordinates (inputs are constant
	// vectors), so any inequality proves a torn update.
	for i := 1; i < n; i++ {
		if snap[i] != snap[0] {
			t.Fatalf("torn global vector: %v vs %v", snap[i], snap[0])
		}
	}
}
