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

// TestWideStepAllocBytes bounds the bytes one wide-model Step allocates. The
// activations of a batch-1 pass are a few KB; what must not come back is a
// parameter-sized temporary — the in×out dW the Dense backward used to
// allocate (5.35 MB per step on this model).
// scripts/check.sh tier 2 runs this by name.
func TestWideStepAllocBytes(t *testing.T) {
	const limit = 128 << 10
	solver, x, labels := wideSolver(t)
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
	if per := (after.TotalAlloc - before.TotalAlloc) / steps; per >= limit {
		t.Fatalf("wide Step allocates %d B/op, want < %d", per, limit)
	}
}

// BenchmarkWideSolverStep times one batch-1 Step of the wide model: forward,
// backward, and the fused solver sweep over all ≈1.32M parameters.
func BenchmarkWideSolverStep(b *testing.B) {
	solver, x, labels := wideSolver(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Step(x, labels); err != nil {
			b.Fatal(err)
		}
	}
}
