package nn

import (
	"hash/fnv"
	"math"
	"testing"

	"shmcaffe/internal/tensor"
)

// TestSolverTrajectoryGolden pins the whole training trajectory — forward,
// backward, gradient accumulation and the momentum update — bit for bit: 50
// seeded Steps per case with momentum, weight decay, an active gradient clip
// and a step LR schedule, then an FNV-64a hash over the final weights and
// every velocity buffer. The constants were captured from the scalar
// clip + momentum loops and the dW-temporary Dense backward that the fused
// solver sweep and the accumulating backward replaced; any reordering of the
// per-element arithmetic changes them. The hashes are backend-independent:
// the test must pass on the AVX2 backend, under -tags noasm and with
// SHMCAFFE_NOSIMD=1.
func TestSolverTrajectoryGolden(t *testing.T) {
	bnNet := func() (*Network, error) {
		return NewNetwork("golden-bn", []int{1, 8, 8},
			NewConv2D("golden-bn/conv", 1, 4, 3, 1, 1),
			NewBatchNorm("golden-bn/bn", 4),
			NewReLU("golden-bn/relu"),
			NewMaxPool2D("golden-bn/pool", 2, 2),
			NewFlatten("golden-bn/flat"),
			NewDense("golden-bn/fc", 4*4*4, 3),
		)
	}
	cases := []struct {
		name     string
		build    func() (*Network, error)
		inShape  []int
		classes  int
		nesterov bool
		want     uint64
	}{
		{"mlp", func() (*Network, error) { return MLP("golden-mlp", 12, 16, 4) }, []int{12}, 4, false, 0x1ca8c9146b2fdbb2},
		{"mlp/nesterov", func() (*Network, error) { return MLP("golden-mlp", 12, 16, 4) }, []int{12}, 4, true, 0x3aad1a04aec1e337},
		{"cnn", func() (*Network, error) { return SmallCNN("golden-cnn", 1, 8, 3, 0) }, []int{1, 8, 8}, 3, false, 0x75926933caf18aab},
		{"cnn/nesterov", func() (*Network, error) { return SmallCNN("golden-cnn", 1, 8, 3, 0) }, []int{1, 8, 8}, 3, true, 0x8c7226f6950b3604},
		{"batchnorm-frozen", bnNet, []int{1, 8, 8}, 3, false, 0xfa61988726e31344},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			net.InitWeights(tensor.NewRNG(11))
			solver := NewSGDSolver(net, SolverConfig{
				BaseLR:      0.05,
				Momentum:    0.9,
				Nesterov:    tc.nesterov,
				WeightDecay: 1e-3,
				GradClip:    0.02, // small enough that some gradients clip and some do not
				StepSize:    20,
				Gamma:       0.5,
			})
			rng := tensor.NewRNG(23)
			const batch, steps = 4, 50
			for i := 0; i < steps; i++ {
				x := tensor.New(append([]int{batch}, tc.inShape...)...)
				rng.FillNormal(x, 0, 1)
				labels := make([]int, batch)
				for j := range labels {
					labels[j] = rng.Intn(tc.classes)
				}
				if _, err := solver.Step(x, labels); err != nil {
					t.Fatal(err)
				}
			}
			h := fnv.New64a()
			var word [4]byte
			put := func(vs []float32) {
				for _, v := range vs {
					b := math.Float32bits(v)
					word[0], word[1], word[2], word[3] = byte(b), byte(b>>8), byte(b>>16), byte(b>>24)
					h.Write(word[:])
				}
			}
			put(net.FlatWeights(nil))
			for _, v := range solver.velocity {
				put(v.Data())
			}
			if got := h.Sum64(); got != tc.want {
				t.Fatalf("trajectory hash %#016x, golden %#016x (backend %s)", got, tc.want, tensor.SimdBackend())
			}
		})
	}
}
