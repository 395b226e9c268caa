package shmcaffe_test

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"shmcaffe"
)

// TestPublicAPIEndToEnd drives a complete SEASGD job through the public
// facade only: dataset → sharding → SMB store → workers → evaluation of
// the global weight → checkpoint round trip.
func TestPublicAPIEndToEnd(t *testing.T) {
	const workers = 3
	const seed = 99

	full, err := shmcaffe.NewGaussianDataset(shmcaffe.GaussianConfig{
		Classes: 4, PerClass: 50, Shape: []int{8}, Noise: 0.3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, val, err := shmcaffe.SplitDataset(full, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	store := shmcaffe.NewStore()
	solver := shmcaffe.DefaultSolverConfig()
	solver.BaseLR = 0.05

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for r := 0; r < workers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = func() error {
				net, err := shmcaffe.MLP(fmt.Sprintf("w%d", r), 8, 16, 4)
				if err != nil {
					return err
				}
				net.InitWeights(shmcaffe.NewRNG(seed))
				shard, err := shmcaffe.ShardDataset(train, r, workers)
				if err != nil {
					return err
				}
				loader, err := shmcaffe.NewLoader(shard, 8, seed+uint64(r))
				if err != nil {
					return err
				}
				w, err := shmcaffe.NewWorker(shmcaffe.WorkerConfig{
					Job:           "facade",
					Client:        shmcaffe.NewLocalClient(store),
					Net:           net,
					Solver:        solver,
					Elastic:       shmcaffe.DefaultElasticConfig(),
					Termination:   shmcaffe.StopOnMaster,
					MaxIterations: 40,
					Loader:        loader,
				}, r, workers)
				if err != nil {
					return err
				}
				_, err = w.Run()
				return err
			}()
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", r, err)
		}
	}

	// Evaluate Wg through the facade types.
	client := shmcaffe.NewLocalClient(store)
	key, err := client.Lookup(shmcaffe.SegmentNames{Job: "facade"}.Global())
	if err != nil {
		t.Fatal(err)
	}
	h, err := client.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	evalNet, err := shmcaffe.MLP("eval", 8, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, evalNet.NumParams()*4)
	if err := client.Read(h, 0, buf); err != nil {
		t.Fatal(err)
	}
	weights := decodeF32(buf)
	if err := evalNet.SetFlatWeights(weights); err != nil {
		t.Fatal(err)
	}
	loader, err := shmcaffe.NewLoader(val, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	b := loader.Next()
	_, acc, err := evalNet.Evaluate(b.X, b.Labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Fatalf("facade end-to-end accuracy %.2f", acc)
	}

	// Checkpoint round trip through the facade.
	var snap bytes.Buffer
	if err := shmcaffe.SaveCheckpoint(&snap, evalNet); err != nil {
		t.Fatal(err)
	}
	restored, _ := shmcaffe.MLP("restored", 8, 16, 4)
	if _, err := shmcaffe.LoadCheckpoint(&snap, restored); err != nil {
		t.Fatal(err)
	}
}

func decodeF32(buf []byte) []float32 {
	out := make([]float32, len(buf)/4)
	for i := range out {
		bits := uint32(buf[4*i]) | uint32(buf[4*i+1])<<8 |
			uint32(buf[4*i+2])<<16 | uint32(buf[4*i+3])<<24
		out[i] = math.Float32frombits(bits)
	}
	return out
}

func TestPlatformsFacade(t *testing.T) {
	reg := shmcaffe.Platforms()
	if len(reg) != 5 {
		t.Fatalf("%d platforms", len(reg))
	}
	for name, tr := range reg {
		if tr.Name() == "" {
			t.Fatalf("platform %q unnamed", name)
		}
	}
}

func TestPerfmodelFacade(t *testing.T) {
	hw := shmcaffe.DefaultHardware()
	models := shmcaffe.PaperModels()
	if len(models) != 4 {
		t.Fatalf("%d models", len(models))
	}
	b, err := shmcaffe.SimulateSEASGD(models[0], 4, 20, hw)
	if err != nil {
		t.Fatal(err)
	}
	if b.Iter <= 0 {
		t.Fatal("empty breakdown")
	}
	bw, err := shmcaffe.SimulateSMBBandwidth(8, 1e9, 16e6, hw)
	if err != nil {
		t.Fatal(err)
	}
	if bw < 6e9 {
		t.Fatalf("bandwidth %v", bw)
	}
}

func TestParseNetSpecFacade(t *testing.T) {
	net, err := shmcaffe.ParseNetSpec("input: 4\ndense out=2\n")
	if err != nil {
		t.Fatal(err)
	}
	if net.NumParams() != 10 {
		t.Fatalf("params %d", net.NumParams())
	}
	if _, err := shmcaffe.ParseNetSpec("garbage"); err == nil {
		t.Fatal("expected parse error")
	}
}

// TestFacadeDataPipeline exercises the corpus, augmentation, and RDS
// surfaces of the public API together.
func TestFacadeDataPipeline(t *testing.T) {
	base, err := shmcaffe.NewPatternDataset(3, 20, 1, 8, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	aug, err := shmcaffe.NewAugmentedDataset(base, shmcaffe.AugmentConfig{FlipH: true, Noise: 0.05, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if aug.Len() != base.Len() {
		t.Fatal("augmentation changed length")
	}

	path := filepath.Join(t.TempDir(), "c.db")
	if err := shmcaffe.SaveCorpus(base, path); err != nil {
		t.Fatal(err)
	}
	db, err := shmcaffe.OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Len() != base.Len() {
		t.Fatalf("corpus length %d", db.Len())
	}

	// RDS + SMB through the facade.
	ep, err := shmcaffe.ListenRDS("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	srv, err := shmcaffe.NewSMBServer(shmcaffe.NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		for {
			conn, err := ep.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	clientEP, err := shmcaffe.ListenRDS("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer clientEP.Close()
	conn, err := clientEP.Dial(ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	client := shmcaffe.NewSMBStreamClient(conn)
	defer client.Close()
	key, err := client.Create("facade-rds", 16)
	if err != nil {
		t.Fatal(err)
	}
	h, err := client.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Write(h, 0, []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if err := client.Read(h, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "0123456789abcdef" {
		t.Fatalf("rds round trip %q", buf)
	}
}
