package nn

import (
	"runtime"
	"testing"

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
// backward, and the fused solver sweep over all ≈1.32M parameters.
func BenchmarkWideSolverStep(b *testing.B) {
	benchSolverStep(b, wideSolver)
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
