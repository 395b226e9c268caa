package main

import "fmt"

// Workload definitions. Every size below is a constant, frozen after the
// calibration recorded in README.md; nothing is re-derived per run. The seed
// reaches the program only as generated data: the synthetic corpus, the
// initial weights, the request features and the writer's increments.

type modelSpec struct {
	Kind string // "mlp" or "cnn"

	// mlp: Features→Hidden→Hidden→Classes. cnn: Channels×Size×Size images.
	Features, Hidden    int
	Channels, Size      int
	Classes             int
	Batch               int
	PerClass            int     // corpus samples per class
	Noise               float64 // corpus noise
	LR                  float64 // base learning rate
	LossLimit           float64 // final_val_loss of the read-back Wg must stay below this
	GemmM, GemmN, GemmK int     // the model's dominant dense shape, for tensor.gemm_gflops
}

// wideMLP is the communication-bound model: ≈1.32M parameters, so T1 and
// the hidden push each move 5.3 MB per iteration while a batch-1 step is
// cheap.
var wideMLP = modelSpec{
	Kind: "mlp", Features: 256, Hidden: 1024, Classes: 10,
	Batch: 1, PerClass: 200, Noise: 0.5, LR: 0.01, LossLimit: 1.0,
	GemmM: 1, GemmN: 1024, GemmK: 1024,
}

// smallCNN is the compute-bound model: ≈18K parameters (0.07 MB of Wg) under
// two conv blocks on 3×16×16 pattern images at batch 16, four classes (the
// pattern generator has four distinct patterns). MiniVGG at the default
// learning rate failed to learn in 3 of 5 probe runs, on every transport;
// SmallCNN at lr 0.02, noise 0.3 reached a validation loss below 1e-3 in
// every calibration run.
var smallCNN = modelSpec{
	Kind: "cnn", Channels: 3, Size: 16, Classes: 4,
	Batch: 16, PerClass: 200, Noise: 0.3, LR: 0.02, LossLimit: 0.5,
	GemmM: 16, GemmN: 64, GemmK: 72, // conv2 as im2col gemm: 16 filters × (8·3·3) × 8·8 positions
}

// Toy sizes for the smoke test: same code paths, milliseconds of work.
var (
	toyMLP = modelSpec{
		Kind: "mlp", Features: 16, Hidden: 32, Classes: 4,
		Batch: 1, PerClass: 40, Noise: 0.5, LR: 0.01, LossLimit: 5,
		GemmM: 1, GemmN: 32, GemmK: 32,
	}
	toyCNN = modelSpec{
		Kind: "cnn", Channels: 1, Size: 8, Classes: 4,
		Batch: 4, PerClass: 20, Noise: 0.3, LR: 0.02, LossLimit: 5,
		GemmM: 16, GemmN: 16, GemmK: 72,
	}
)

type workload struct {
	Name      string
	Why       string // mirrored in BENCHMARK.json
	Serve     bool   // open-loop serving instead of closed-loop training
	Transport string
	Model     modelSpec
	Warmup    int // iterations per worker / requests before timing; charged to setup_s
}

// trainWorld is the worker-process count of the training workloads: with the
// server that is three busy processes on the 2-core calibration host, the
// oversubscribed shape the paper's CPU-side costs show up in.
const trainWorld = 2

// Serving schedule. The rates are ≈25/50/75 % of the single-connection
// saturation measured at calibration (≈330 req/s: the default 2 ms
// -batch-delay plus one forward pass per request), then frozen. sloP95Ms is
// the latency limit rate_at_slo is judged against.
//
// The writer's rate decides what the tail means. A request is slow when it
// collides with a push (≈7 ms of server CPU each) or a refresh; at 4 pushes/s
// about 5 % of requests collide, which puts p95 exactly on the knee between
// the two populations. At 20 pushes/s (≈106 MB/s into Wg) one request in
// five overlaps a push and about half of those are delayed, so p95 sits
// inside the collided population and measures what the workload is about:
// the latency of a read that meets a write. (It still does not repeat well
// enough on the calibration host to carry a bound; see metrics.go.)
var (
	serveRates       = [3]float64{80, 160, 240}         // requests/s: R1 < R2 < R3
	servePhaseShare  = [4]float64{0.15, 0.45, 0.2, 0.2} // of the window: R1, R2 (the reported latencies), R3, closed loop
	serveWriterRate  = 20.0                             // pushes/s into Wg beside the reads
	sloP95Ms         = 8.0
	sloOKShare       = 0.999
	serveSettleDelay = 0.5 // seconds after the writer stops before the final-reply check (> 2 refreshes)
)

func workloads(toy bool) []workload {
	mlp, cnn := wideMLP, smallCNN
	if toy {
		mlp, cnn = toyMLP, toyCNN
	}
	return []workload{
		{
			Name:      "train_wide_tcp",
			Why:       "closed loop, 2 workers + smbserver over tcp_sg, 5.3 MB Wg at batch 1: comm-bound, smb wire/transport does most of the work",
			Transport: "tcp_sg", Model: mlp, Warmup: 10,
		},
		{
			Name:      "train_wide_shm",
			Why:       "same model, data and schedule over the shm transport: store and fused-kernel work with the wire removed, so wire changes must leave it flat",
			Transport: "shm", Model: mlp, Warmup: 10,
		},
		{
			Name:      "train_conv_tcp",
			Why:       "closed loop, 2 workers over tcp_sg, small CNN at batch 16 with 0.07 MB Wg: compute-bound, nn/tensor/dataset dominate and smb must stay small",
			Transport: "tcp_sg", Model: cnn, Warmup: 30,
		},
		{
			Name:      "serve_storm_tcp",
			Why:       "open loop /infer at three fixed rates through default-flag shmserve beside a paced 5.3 MB writer: snapshot reads against COW-paying writes",
			Serve:     true,
			Transport: "tcp_sg", Model: mlp, Warmup: 30,
		},
	}
}

func findWorkload(name string, toy bool) (workload, error) {
	for _, w := range workloads(toy) {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// buildNet constructs the workload's model.
func buildNet(m modelSpec, name string) (*network, error) {
	switch m.Kind {
	case "mlp":
		return nnMLP(name, m.Features, m.Hidden, m.Classes)
	case "cnn":
		return nnSmallCNN(name, m.Channels, m.Size, m.Classes, 1)
	}
	return nil, fmt.Errorf("unknown model kind %q", m.Kind)
}

// buildData generates the seeded corpus and splits it 80/20.
func buildData(m modelSpec, seed uint64) (train, val dataSet, err error) {
	var full dataSet
	switch m.Kind {
	case "mlp":
		full, err = newGaussian(gaussianConfig{
			Classes: m.Classes, PerClass: m.PerClass, Shape: []int{m.Features},
			Noise: m.Noise, Seed: seed,
		})
	case "cnn":
		full, err = newPatternImages(m.Classes, m.PerClass, m.Channels, m.Size, m.Noise, seed)
	default:
		err = fmt.Errorf("unknown model kind %q", m.Kind)
	}
	if err != nil {
		return nil, nil, err
	}
	return splitDataset(full, 0.8)
}

func solverFor(m modelSpec) solverConfig {
	s := defaultSolverConfig()
	s.BaseLR = m.LR
	return s
}

// inputLen is the flattened sample size.
func (m modelSpec) inputLen() int {
	if m.Kind == "cnn" {
		return m.Channels * m.Size * m.Size
	}
	return m.Features
}
