// Quickstart: train a model with 4 SEASGD workers sharing parameters
// through an in-process Soft Memory Box — the smallest end-to-end use of
// the shmcaffe core API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"
	"sync"

	"shmcaffe"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		workers = 4
		epochs  = 6
		batch   = 8
		seed    = 42
	)

	// 1. A synthetic classification task (the stand-in for ImageNet).
	full, err := shmcaffe.NewGaussianDataset(shmcaffe.GaussianConfig{
		Classes:  4,
		PerClass: 100,
		Shape:    []int{8},
		Noise:    0.6,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	train, val, err := shmcaffe.SplitDataset(full, 0.8)
	if err != nil {
		return err
	}

	// 2. The SMB "memory server" — here in-process; swap NewLocalClient
	//    for DialSMB("host:7700") to use a remote one (cmd/smbserver).
	store := shmcaffe.NewStore()

	solver := shmcaffe.DefaultSolverConfig()
	solver.BaseLR = 0.05
	itersPerEpoch := train.Len() / (batch * workers)

	// 3. One goroutine per worker: build a replica, shard the data,
	//    run SEASGD. Rank 0 is the master worker that creates the shared
	//    Wg buffer; the others find it by name on the server (Fig. 2).
	var wg sync.WaitGroup
	stats := make([]*shmcaffe.RunStats, workers)
	errs := make([]error, workers)
	for r := 0; r < workers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = func() error {
				net, err := shmcaffe.MLP(fmt.Sprintf("worker%d", r), 8, 16, 4)
				if err != nil {
					return err
				}
				net.InitWeights(shmcaffe.NewRNG(seed)) // same start everywhere
				shard, err := shmcaffe.ShardDataset(train, r, workers)
				if err != nil {
					return err
				}
				loader, err := shmcaffe.NewLoader(shard, batch, seed+uint64(r))
				if err != nil {
					return err
				}
				worker, err := shmcaffe.NewWorker(shmcaffe.WorkerConfig{
					Job:           "quickstart",
					Client:        shmcaffe.NewLocalClient(store),
					Net:           net,
					Solver:        solver,
					Elastic:       shmcaffe.DefaultElasticConfig(), // α=0.2, interval 1
					Termination:   shmcaffe.StopOnMaster,
					MaxIterations: itersPerEpoch * epochs,
					Loader:        loader,
				}, r, workers)
				if err != nil {
					return err
				}
				stats[r], err = worker.Run()
				return err
			}()
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("worker %d: %w", r, err)
		}
	}

	// 4. The trained model is the *global* weight Wg on the SMB server.
	client := shmcaffe.NewLocalClient(store)
	names := shmcaffe.SegmentNames{Job: "quickstart"}
	key, err := client.Lookup(names.Global())
	if err != nil {
		return err
	}
	h, err := client.Attach(key)
	if err != nil {
		return err
	}
	evalNet, err := shmcaffe.MLP("eval", 8, 16, 4)
	if err != nil {
		return err
	}
	buf := make([]byte, evalNet.NumParams()*4)
	if err := client.Read(h, 0, buf); err != nil {
		return err
	}
	weights := make([]float32, evalNet.NumParams())
	for i := range weights {
		bits := uint32(buf[4*i]) | uint32(buf[4*i+1])<<8 |
			uint32(buf[4*i+2])<<16 | uint32(buf[4*i+3])<<24
		weights[i] = math.Float32frombits(bits)
	}
	if err := evalNet.SetFlatWeights(weights); err != nil {
		return err
	}

	valLoader, err := shmcaffe.NewLoader(val, 64, seed)
	if err != nil {
		return err
	}
	b := valLoader.Next()
	loss, acc, err := evalNet.Evaluate(b.X, b.Labels, 1)
	if err != nil {
		return err
	}

	fmt.Println("SEASGD quickstart finished:")
	for r, s := range stats {
		fmt.Printf("  worker %d: %3d iterations, %3d global pushes, stopped by %q\n",
			r, s.Iterations, s.Pushes, s.StoppedBy)
	}
	fmt.Printf("  global weight Wg: val loss %.3f, top-1 accuracy %.1f%%\n", loss, 100*acc)
	return nil
}
