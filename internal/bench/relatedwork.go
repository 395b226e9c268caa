package bench

import (
	"fmt"
	"sync"

	"shmcaffe/internal/core"
	"shmcaffe/internal/dataset"
	"shmcaffe/internal/nn"
	"shmcaffe/internal/ps"
	"shmcaffe/internal/smb"
	"shmcaffe/internal/tensor"
	"shmcaffe/internal/trace"
)

// RelatedWorkDisciplines compares the asynchronous update disciplines of
// the paper's related-work section head to head on the same task, data
// sharding and iteration budget:
//
//   - ASGD (Downpour): raw gradient pushes to a parameter server.
//   - EASGD: elastic weight exchanges with a parameter server.
//   - SEASGD: the paper's reformulation — elastic increments accumulated
//     into a dumb shared buffer (no parameter-server logic).
//
// The shape to verify: EASGD and SEASGD track each other closely (the
// algebra is equivalent) and both tolerate high worker counts better than
// raw-gradient ASGD.
func RelatedWorkDisciplines(workers int, o ConvergenceOptions) (*trace.Table, error) {
	t := trace.New(fmt.Sprintf("Related work: asynchronous disciplines at %d workers", workers),
		"Discipline", "Final accuracy", "Final val loss")

	full, err := dataset.NewGaussian(dataset.GaussianConfig{
		Classes:  o.Classes,
		PerClass: o.PerClass,
		Shape:    []int{o.Features},
		Noise:    o.Noise,
		Seed:     o.Seed,
	})
	if err != nil {
		return nil, err
	}
	train, val, err := dataset.Split(full, 0.8)
	if err != nil {
		return nil, err
	}
	solver := nn.DefaultSolverConfig()
	solver.BaseLR = 0.05
	itersPerEpoch := train.Len() / (o.Batch * workers)
	if itersPerEpoch < 1 {
		itersPerEpoch = 1
	}
	iters := itersPerEpoch * o.Epochs
	classes := o.Classes
	features := o.Features

	buildWorker := func(r int) (*nn.Network, *dataset.Loader, error) {
		net, err := nn.MLP(fmt.Sprintf("rw%d", r), features, 16, classes)
		if err != nil {
			return nil, nil, err
		}
		net.InitWeights(tensor.NewRNG(o.Seed))
		shard, err := dataset.NewShard(train, r, workers)
		if err != nil {
			return nil, nil, err
		}
		loader, err := dataset.NewLoader(shard, o.Batch, o.Seed+uint64(r))
		if err != nil {
			return nil, nil, err
		}
		return net, loader, nil
	}

	evalWeights := func(weights []float32) (acc, loss float64, err error) {
		evalNet, err := nn.MLP("rw-eval", features, 16, classes)
		if err != nil {
			return 0, 0, err
		}
		if err := evalNet.SetFlatWeights(weights); err != nil {
			return 0, 0, err
		}
		loader, err := dataset.NewLoader(val, 64, o.Seed^0xabc)
		if err != nil {
			return 0, 0, err
		}
		b := loader.Next()
		l, a, err := evalNet.Evaluate(b.X, b.Labels, 1)
		return a, l, err
	}

	// ASGD and EASGD through the parameter server.
	for _, mode := range []string{"ASGD (Downpour)", "EASGD"} {
		seedNet, err := nn.MLP("seed", features, 16, classes)
		if err != nil {
			return nil, err
		}
		seedNet.InitWeights(tensor.NewRNG(o.Seed))
		server := ps.NewServer(seedNet.FlatWeights(nil))
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for r := 0; r < workers; r++ {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				net, loader, err := buildWorker(r)
				if err != nil {
					errs[r] = err
					return
				}
				cfg := ps.WorkerConfig{
					Server: server, Net: net, Solver: solver,
					Loader: loader, MaxIterations: iters,
					Alpha: 0.2, ExchangeEvery: 1,
				}
				if mode == "EASGD" {
					_, errs[r] = ps.RunEASGD(cfg)
				} else {
					_, errs[r] = ps.RunASGD(cfg)
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("%s: %w", mode, err)
			}
		}
		acc, loss, err := evalWeights(server.Snapshot())
		if err != nil {
			return nil, err
		}
		t.Add(mode, trace.Pct(acc), trace.F2(loss))
	}

	// SEASGD through the SMB buffer.
	store := smb.NewStore()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for r := 0; r < workers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			net, loader, err := buildWorker(r)
			if err != nil {
				errs[r] = err
				return
			}
			w, err := core.NewWorkerPolling(core.WorkerConfig{
				Job: "rw", Client: smb.NewLocalClient(store),
				Net: net, Solver: solver,
				Elastic:       core.DefaultElasticConfig(),
				Termination:   core.StopIndependently,
				MaxIterations: iters, Loader: loader,
			}, r, workers, core.BootstrapOptions{})
			if err != nil {
				errs[r] = err
				return
			}
			_, errs[r] = w.Run()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("SEASGD: %w", err)
		}
	}
	client := smb.NewLocalClient(store)
	key, err := client.Lookup(smb.SegmentNames{Job: "rw"}.Global())
	if err != nil {
		return nil, err
	}
	h, err := client.Attach(key)
	if err != nil {
		return nil, err
	}
	seedNet, err := nn.MLP("sz", features, 16, classes)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, seedNet.NumParams()*4)
	if err := client.Read(h, 0, buf); err != nil {
		return nil, err
	}
	wgVals, err := tensor.Float32FromBytes(buf)
	if err != nil {
		return nil, err
	}
	acc, loss, err := evalWeights(wgVals)
	if err != nil {
		return nil, err
	}
	t.Add("SEASGD (ShmCaffe)", trace.Pct(acc), trace.F2(loss))
	return t, nil
}
