package nn

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"shmcaffe/internal/tensor"
)

// TestNewNetworkRejectsRepeatedLayer: a layer instance listed twice anywhere
// in the tree is an error naming it — at the top level, inside a Stack, as
// two Parallel branches, or shared between a Residual's inner stack and the
// network — including parameter-free layers, which the parameter check
// cannot see. One *ReLU used twice would otherwise hand its first use's
// backward the second use's output.
func TestNewNetworkRejectsRepeatedLayer(t *testing.T) {
	conv := func(name string) Layer { return NewConv2D(name, 2, 2, 3, 1, 1) }
	relu := NewReLU("shared-relu")
	cases := map[string][]Layer{
		"top level": {relu, relu, NewFlatten("flat"), NewDense("fc", 2*4*4, 3)},
		"in a stack": {NewStack("s", conv("c1"), relu, conv("c2"), relu),
			NewFlatten("flat"), NewDense("fc", 2*4*4, 3)},
		"across parallel branches": {NewParallel("p", relu, relu),
			NewFlatten("flat"), NewDense("fc", 4*4*4, 3)},
		"inside and outside a residual": {NewResidual("r", NewStack("f", conv("c1"), relu)), relu,
			NewFlatten("flat"), NewDense("fc", 2*4*4, 3)},
	}
	for name, layers := range cases {
		_, err := NewNetwork("dup", []int{2, 4, 4}, layers...)
		if err == nil || !strings.Contains(err.Error(), `lists layer "shared-relu" twice`) {
			t.Errorf("%s: err %v", name, err)
		}
	}
	// Distinct instances that share a name are distinct layers.
	if _, err := NewNetwork("ok", []int{2, 4, 4}, NewReLU("relu"), NewReLU("relu"),
		NewFlatten("flat"), NewDense("fc", 2*4*4, 3)); err != nil {
		t.Fatal(err)
	}
}

// reuseNets builds the networks the scratch-reuse test drives: between them
// every layer that keeps scratch — Conv2D, ReLU, MaxPool2D, Dense, the
// softmax head, Parallel, Stack, LRN, AvgPool2D, Residual, BatchNorm,
// Sigmoid and Tanh.
var reuseNets = map[string]func() (*Network, error){
	"smallcnn":      func() (*Network, error) { return SmallCNN("cnn", 3, 8, 4, 0) },
	"miniinception": func() (*Network, error) { return MiniInception("inc", 3, 8, 4) },
	"miniresnet":    func() (*Network, error) { return MiniResNet("res", 3, 8, 4) },
	"squash": func() (*Network, error) {
		return NewNetwork("squash", []int{3, 8, 8},
			NewFlatten("flat"), NewDense("fc1", 3*8*8, 16), NewSigmoid("sig"),
			NewDense("fc2", 16, 8), NewTanh("tanh"), NewDense("fc3", 8, 4))
	},
}

// TestScratchReuseAcrossBatchShapes: one network runs Forward and TrainStep
// at batch 16, then 3, then 16 again, as a serving replica's batches vary,
// each time after a first pass over another batch of that size. The
// logits, loss, probabilities and gradient slab are bitwise what a fresh
// network with the same weights computes, so no buffer carries anything
// over from an earlier pass or shape. A result at a new shape also shares no
// storage with the previous shape's, which its caller may still hold.
func TestScratchReuseAcrossBatchShapes(t *testing.T) {
	for name, build := range reuseNets {
		t.Run(name, func(t *testing.T) {
			net, err := build()
			if err != nil {
				t.Fatal(err)
			}
			net.InitWeights(tensor.NewRNG(5))
			rng := tensor.NewRNG(17)
			var prevLogits, prevProbs *tensor.Tensor
			draw := func(n int) (*tensor.Tensor, []int) {
				x := tensor.New(n, 3, 8, 8)
				rng.FillNormal(x, 0, 1)
				labels := make([]int, n)
				for i := range labels {
					labels[i] = rng.Intn(4)
				}
				return x, labels
			}
			for stage, batch := range []int{16, 3, 16} {
				// A first pass at this shape leaves every buffer holding
				// another batch's values before the pass that is checked.
				if _, _, err := net.TrainStep(draw(batch)); err != nil {
					t.Fatal(err)
				}
				x, labels := draw(batch)
				fresh, err := build()
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.SetFlatWeights(net.Weights()); err != nil {
					t.Fatal(err)
				}

				logits, err := net.Forward(x, false)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Forward(x, false)
				if err != nil {
					t.Fatal(err)
				}
				assertBitsEqual(t, "logits", logits.Data(), want.Data())
				if prevLogits != nil && overlaps(logits.Data(), prevLogits.Data()) {
					t.Fatalf("stage %d: batch-%d logits alias the previous batch's", stage, batch)
				}
				prevLogits = logits

				net.ZeroGrads()
				loss, probs, err := net.TrainStep(x, labels)
				if err != nil {
					t.Fatal(err)
				}
				wantLoss, wantProbs, err := fresh.TrainStep(x, labels)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(loss) != math.Float64bits(wantLoss) {
					t.Fatalf("stage %d: loss %v, fresh %v", stage, loss, wantLoss)
				}
				assertBitsEqual(t, "probs", probs.Data(), wantProbs.Data())
				assertBitsEqual(t, "grads", net.Grads(), fresh.Grads())
				if prevProbs != nil && overlaps(probs.Data(), prevProbs.Data()) {
					t.Fatalf("stage %d: batch-%d probabilities alias the previous batch's", stage, batch)
				}
				prevProbs = probs

				// Move the weights on so each stage starts somewhere new.
				for i, g := range net.Grads() {
					net.Weights()[i] -= 0.1 * g
				}
			}
		})
	}
}

// overlaps reports whether two float32 slices share any storage.
func overlaps(a, b []float32) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b))*4 && b0 < a0+uintptr(len(a))*4
}
