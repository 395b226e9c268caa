package nn

import (
	"math"
	"testing"

	"shmcaffe/internal/tensor"
)

// fullBackwardGrads runs the backward pass by hand the way TrainStep did
// before it skipped the first layer's dL/dinput — every layer's whole
// Backward, layers[0] included — and returns a copy of the gradient slab.
func fullBackwardGrads(t *testing.T, net *Network, x *tensor.Tensor, labels []int) []float32 {
	t.Helper()
	net.ZeroGrads()
	logits, err := net.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := net.loss.Forward(logits, labels); err != nil {
		t.Fatal(err)
	}
	grad, err := net.loss.Backward()
	if err != nil {
		t.Fatal(err)
	}
	for i := len(net.layers) - 1; i >= 0; i-- {
		if grad, err = net.layers[i].Backward(grad); err != nil {
			t.Fatal(err)
		}
	}
	return net.FlatGrads(nil)
}

// TestTrainStepFirstLayerSkip: TrainStep runs only the parameter half of
// the first layer's backward, and that changes no gradient — the slab is
// bitwise what the full Backward of every layer accumulates. Networks
// whose first layer has no such split (a ReLU, a composite) take the full
// Backward and still train.
func TestTrainStepFirstLayerSkip(t *testing.T) {
	cases := []struct {
		name    string
		build   func() (*Network, error)
		inShape []int
		classes int
	}{
		{"mlp", func() (*Network, error) { return MLP("skip-mlp", 12, 16, 4) }, []int{12}, 4},
		{"smallcnn", func() (*Network, error) { return SmallCNN("skip-cnn", 3, 16, 4, 0) }, []int{3, 16, 16}, 4},
		{"relu-first", func() (*Network, error) {
			return NewNetwork("skip-relu", []int{12},
				NewReLU("skip-relu/relu0"),
				NewDense("skip-relu/fc1", 12, 8),
				NewReLU("skip-relu/relu1"),
				NewDense("skip-relu/fc2", 8, 4),
			)
		}, []int{12}, 4},
		{"stack-first", func() (*Network, error) {
			return NewNetwork("skip-stack", []int{1, 8, 8},
				NewStack("skip-stack/block",
					NewConv2D("skip-stack/conv", 1, 4, 3, 1, 1),
					NewReLU("skip-stack/relu"),
				),
				NewMaxPool2D("skip-stack/pool", 2, 2),
				NewFlatten("skip-stack/flat"),
				NewDense("skip-stack/fc", 4*4*4, 4),
			)
		}, []int{1, 8, 8}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			rng := tensor.NewRNG(3)
			net.InitWeights(rng)
			const batch = 8
			x := tensor.New(append([]int{batch}, tc.inShape...)...)
			rng.FillNormal(x, 0, 1)
			labels := make([]int, batch)
			for i := range labels {
				labels[i] = i % tc.classes
			}

			net.ZeroGrads()
			if _, _, err := net.TrainStep(x, labels); err != nil {
				t.Fatal(err)
			}
			got := net.FlatGrads(nil)
			want := fullBackwardGrads(t, net, x, labels)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("gradient %d: TrainStep %v, full backward %v", i, got[i], want[i])
				}
			}
			for _, p := range net.layers[0].Params() {
				if nonzero(p.Grad.Data()) == 0 {
					t.Fatalf("first-layer param %s got no gradient", p.Name)
				}
			}

			net.ZeroGrads()
			solver := NewSGDSolver(net, SolverConfig{BaseLR: 0.05, Momentum: 0.9})
			first, err := solver.Step(x, labels)
			if err != nil {
				t.Fatal(err)
			}
			last := first
			for i := 0; i < 30; i++ {
				if last, err = solver.Step(x, labels); err != nil {
					t.Fatal(err)
				}
			}
			if !(last < first) {
				t.Fatalf("loss %v after 30 steps on one batch, started at %v", last, first)
			}
		})
	}
}

func nonzero(vs []float32) int {
	n := 0
	for _, v := range vs {
		if v != 0 {
			n++
		}
	}
	return n
}
