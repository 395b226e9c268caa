// asgd_vs_hybrid reproduces the paper's Fig. 11 experiment functionally:
// train ShmCaffe-A and ShmCaffe-H with growing worker counts and watch the
// asynchronous variant's accuracy erode with staleness while the hybrid
// holds (paper: −5.7 % at 16 GPUs for A; H within 0.9–2.2 % of 1 GPU).
// It also demonstrates the staleness ablation the paper argues for in
// Sec. III-G: hiding the global-weight read hurts convergence.
//
//	go run ./examples/asgd_vs_hybrid
package main

import (
	"fmt"
	"log"
	"os"
	"sync"

	"shmcaffe"
	"shmcaffe/internal/bench"
	"shmcaffe/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("== Fig. 11: ShmCaffe-A vs ShmCaffe-H accuracy/loss vs workers ==")
	fmt.Println()
	opts := bench.DefaultConvergenceOptions()
	opts.Epochs = 6
	opts.PerClass = 240 // enough shards for 16 workers
	opts.Noise = 0.8    // harder task so staleness effects are visible
	tab, err := bench.Fig11AsyncVsHybrid([]int{1, 4, 8, 16}, opts)
	if err != nil {
		return err
	}
	if err := tab.Render(os.Stdout); err != nil {
		return err
	}

	fmt.Println()
	fmt.Println("== Staleness ablation: exposed vs hidden global-weight read ==")
	fmt.Println()
	exposedLoss, err := finalLoss(false)
	if err != nil {
		return err
	}
	hiddenLoss, err := finalLoss(true)
	if err != nil {
		return err
	}
	t := trace.New("Final training loss after 6 epochs, 8 SEASGD workers",
		"Variant", "Final loss")
	t.Add("exposed read (paper's choice)", trace.F2(exposedLoss))
	t.Add("hidden read (stale Wg)", trace.F2(hiddenLoss))
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	fmt.Println("ShmCaffe deliberately keeps the Wg read on the critical path: \"the learning")
	fmt.Println("performance deteriorates due to the delayed (or stale) parameter problem\" (Sec. III-G).")
	return nil
}

// finalLoss trains 8 SEASGD workers with/without the hidden-read ablation
// and returns the mean final minibatch loss across workers.
func finalLoss(hideRead bool) (float64, error) {
	const (
		workers = 8
		iters   = 60
		seed    = 7
	)
	full, err := shmcaffe.NewGaussianDataset(shmcaffe.GaussianConfig{
		Classes: 4, PerClass: 100, Shape: []int{8}, Noise: 0.8, Seed: seed,
	})
	if err != nil {
		return 0, err
	}
	store := shmcaffe.NewStore()
	solver := shmcaffe.DefaultSolverConfig()
	solver.BaseLR = 0.05

	var wg sync.WaitGroup
	losses := make([]float64, workers)
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
				shard, err := shmcaffe.ShardDataset(full, r, workers)
				if err != nil {
					return err
				}
				loader, err := shmcaffe.NewLoader(shard, 8, seed+uint64(r))
				if err != nil {
					return err
				}
				w, err := shmcaffe.NewWorker(shmcaffe.WorkerConfig{
					Job:            fmt.Sprintf("ablation-%v", hideRead),
					Client:         shmcaffe.NewLocalClient(store),
					Net:            net,
					Solver:         solver,
					Elastic:        shmcaffe.DefaultElasticConfig(),
					Termination:    shmcaffe.StopIndependently,
					MaxIterations:  iters,
					Loader:         loader,
					HideGlobalRead: hideRead,
				}, r, workers)
				if err != nil {
					return err
				}
				stats, err := w.Run()
				if err != nil {
					return err
				}
				n := len(stats.LossHistory)
				tail := stats.LossHistory[n-5:]
				var s float64
				for _, v := range tail {
					s += v
				}
				losses[r] = s / float64(len(tail))
				return nil
			}()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	var sum float64
	for _, l := range losses {
		sum += l
	}
	return sum / workers, nil
}
