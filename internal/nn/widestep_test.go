package nn

import (
	"math"
	"runtime"
	"testing"

	"shmcaffe/internal/dataset"
	"shmcaffe/internal/tensor"
)

// The wide model: the benchmark's communication-bound MLP (256→1024→1024→10,
// ≈1.32M parameters) at batch 1, where the solver sweep, not the network, is
// the compute.
const wideFeatures, wideHidden, wideClasses = 256, 1024, 10

func wideSolver(tb testing.TB) (*SGDSolver, *tensor.Tensor, []int) {
	tb.Helper()
	net, err := MLP("wide", wideFeatures, wideHidden, wideClasses)
	if err != nil {
		tb.Fatal(err)
	}
	rng := tensor.NewRNG(1)
	net.InitWeights(rng)
	cfg := DefaultSolverConfig()
	cfg.BaseLR = 0.01
	x := tensor.New(1, wideFeatures)
	rng.FillNormal(x, 0, 1)
	return NewSGDSolver(net, cfg), x, []int{3}
}

// TestWideStepAllocBytes bounds the bytes one wide-model Step allocates.
// Every layer keeps its activations, so a step allocates only tensor
// headers (≈1 KB measured, 34 KB when activations were per step); what
// must not come back is a parameter-sized temporary — the in×out dW the
// Dense backward used to allocate (5.35 MB per step on this model).
// scripts/check.sh tier 2 runs this by name.
func TestWideStepAllocBytes(t *testing.T) {
	const limit = 64 << 10
	solver, x, labels := wideSolver(t)
	if per := stepAllocBytes(t, solver, x, labels); per >= limit {
		t.Fatalf("wide Step allocates %d B/op, want < %d", per, limit)
	}
}

// BenchmarkWideSolverStep times one batch-1 Step of the wide model: forward,
// the backward that sweeps every Dense layer's update (all ≈1.32M
// parameters). normal repeats one N(0,1) sample, whose loss underflows to
// 0 within five steps while the gradients stay normal or zero. subnormal
// starts each timed Step from one state inside the subnormal cliff (see
// wideSubnormalState).
func BenchmarkWideSolverStep(b *testing.B) {
	b.Run("normal", func(b *testing.B) { benchSolverStep(b, wideSolver) })
	b.Run("subnormal", func(b *testing.B) {
		solver, x, labels, share := wideSubnormalState(b)
		weights := append([]float32(nil), solver.net.Weights()...)
		velocity := make([][]float32, len(solver.velocity))
		for i, v := range solver.velocity {
			velocity[i] = append([]float32(nil), v.Data()...)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(solver.net.Weights(), weights)
			for j, v := range solver.velocity {
				copy(v.Data(), velocity[j])
			}
			b.StartTimer()
			if _, err := solver.Step(x, labels); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(share, "subnormal-dW-share")
	})
}

// wideSubnormalState steps the wide model on one repeated sample of the
// benchmark workload's data (Gaussian clusters, noise 0.5, seed 2) for 20
// steps. The loss reads 0 from the fourth step on; from about the 16th to
// the 34th the class probabilities pass through the subnormal range, so
// the softmax gradient, dX and dW do too, and a step runs ≈ 10× slower on
// subnormal arithmetic. It also returns the share of dW elements that are
// subnormal at that state, read from a two-phase twin's gradients.
func wideSubnormalState(b *testing.B) (*SGDSolver, *tensor.Tensor, []int, float64) {
	b.Helper()
	const seed = 2
	build := func() *Network {
		net, err := MLP("wide", wideFeatures, wideHidden, wideClasses)
		if err != nil {
			b.Fatal(err)
		}
		net.InitWeights(tensor.NewRNG(seed))
		return net
	}
	data, err := dataset.NewGaussian(dataset.GaussianConfig{Classes: wideClasses, PerClass: 200, Shape: []int{wideFeatures}, Noise: 0.5, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	loader, err := dataset.NewLoader(data, 1, seed)
	if err != nil {
		b.Fatal(err)
	}
	batch := loader.Next()
	cfg := DefaultSolverConfig()
	cfg.BaseLR = 0.01
	solver := NewSGDSolver(build(), cfg)
	for i := 0; i < 20; i++ {
		if _, err := solver.Step(batch.X, batch.Labels); err != nil {
			b.Fatal(err)
		}
	}
	twin := build()
	copy(twin.Weights(), solver.net.Weights())
	if _, _, err := twin.TrainStep(batch.X, batch.Labels); err != nil {
		b.Fatal(err)
	}
	var sub, dw int
	for _, l := range twin.layers {
		if d, ok := l.(*Dense); ok {
			for _, v := range d.w.Grad.Data() {
				if v != 0 && math.Abs(float64(v)) < 0x1p-126 {
					sub++
				}
			}
			dw += d.w.Grad.Len()
		}
	}
	return solver, batch.X, batch.Labels, float64(sub) / float64(dw)
}

// The conv model: the benchmark's compute-bound SmallCNN(3, 16, 4) at batch
// 16, where the network's forward and backward, not the solver, are the step.
const cnnChannels, cnnSize, cnnClasses, cnnBatch = 3, 16, 4, 16

func smallCNNSolver(tb testing.TB) (*SGDSolver, *tensor.Tensor, []int) {
	tb.Helper()
	net, err := SmallCNN("cnn", cnnChannels, cnnSize, cnnClasses, 0)
	if err != nil {
		tb.Fatal(err)
	}
	rng := tensor.NewRNG(1)
	net.InitWeights(rng)
	cfg := DefaultSolverConfig()
	cfg.BaseLR = 0.01
	x := tensor.New(cnnBatch, cnnChannels, cnnSize, cnnSize)
	rng.FillNormal(x, 0, 1)
	labels := make([]int, cnnBatch)
	for i := range labels {
		labels[i] = i % cnnClasses
	}
	return NewSGDSolver(net, cfg), x, labels
}

// TestSmallCNNStepAllocBytes bounds the bytes one batch-16 SmallCNN Step
// allocates. Every layer owns its outputs, dL/dinput and backward
// temporaries (the conv's im2col slab among them) and reuses them while the
// batch shape holds, so a step allocates only tensor headers for per-sample
// views: ≈16 KB measured. What must not come back is per-step activations
// and im2col buffers, 1.79 MB a step before layers owned them.
// scripts/check.sh tier 2 runs this by name.
func TestSmallCNNStepAllocBytes(t *testing.T) {
	const limit = 64 << 10
	solver, x, labels := smallCNNSolver(t)
	if per := stepAllocBytes(t, solver, x, labels); per >= limit {
		t.Fatalf("SmallCNN Step allocates %d B/op, want < %d", per, limit)
	}
}

// BenchmarkSmallCNNStep times one batch-16 Step of the conv model.
func BenchmarkSmallCNNStep(b *testing.B) {
	benchSolverStep(b, smallCNNSolver)
}

// stepAllocBytes returns the mean bytes one Step allocates once the gemm
// freelists are warm.
func stepAllocBytes(t *testing.T, solver *SGDSolver, x *tensor.Tensor, labels []int) uint64 {
	t.Helper()
	step := func() {
		if _, err := solver.Step(x, labels); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // warm the gemm freelists
		step()
	}
	const steps = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / steps
}

func benchSolverStep(b *testing.B, build func(testing.TB) (*SGDSolver, *tensor.Tensor, []int)) {
	solver, x, labels := build(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Step(x, labels); err != nil {
			b.Fatal(err)
		}
	}
}
