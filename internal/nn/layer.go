// Package nn implements the deep-learning computation substrate: layers,
// sequential networks, a softmax cross-entropy head, and Caffe-style solver
// mechanics (contiguous flat weight vectors, SGD with momentum and step
// learning-rate policy). It plays the role BVLC Caffe's computation library
// plays inside ShmCaffe: the distributed solvers in internal/core treat a
// network purely as "flat weights in, flat gradients out".
package nn

import (
	"errors"
	"fmt"

	"shmcaffe/internal/tensor"
)

// ErrBadShape is returned when a layer receives an input whose shape it
// cannot process.
var ErrBadShape = errors.New("nn: bad input shape")

// Param is one parameter blob with its gradient. Frozen parameters are
// carried in the flat weight vector (so replica synchronization, SEASGD
// exchanges, checkpoints and evaluation transfers preserve them) but are
// never updated by the solver — batch-norm running statistics are the
// canonical case, exactly like Caffe's lr_mult=0 blobs. Once a Network is
// built over it, W and Grad are views into that network's slabs.
type Param struct {
	Name   string
	W      *tensor.Tensor
	Grad   *tensor.Tensor
	Frozen bool

	owner *Network // the network whose slabs W and Grad view; nil until packed
}

// newParam allocates a parameter and a same-shaped gradient.
func newParam(name string, shape ...int) *Param {
	return &Param{
		Name: name,
		W:    tensor.New(shape...),
		Grad: tensor.New(shape...),
	}
}

// Layer is one differentiable stage of a network. Forward receives a
// batch-first activation tensor and returns the layer output; Backward
// receives dL/d(output) and returns dL/d(input), accumulating parameter
// gradients into Params. Layers are stateful (they cache forward inputs),
// so each worker must own its own replica, and a network lists each layer
// instance once.
//
// A layer owns the tensors it returns. An output stays valid until that
// layer's next Forward and a returned dL/d(input) until its next Backward;
// after that the layer writes its next result into the same storage while
// the batch shape holds (and allocates afresh when it changes). A caller
// that keeps a result past that point copies it. A layer reads its cached
// input during Backward, so a caller must not change a tensor it passed to
// Forward before the matching Backward.
type Layer interface {
	// Name identifies the layer for diagnostics and parameter naming.
	Name() string
	// OutShape returns the per-sample output shape for a per-sample input
	// shape (without the batch dimension).
	OutShape(in []int) ([]int, error)
	// Forward computes the layer output for batch x. train enables
	// training-only behaviour such as dropout.
	Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error)
	// Backward computes dL/dinput given dL/doutput and accumulates
	// parameter gradients.
	Backward(grad *tensor.Tensor) (*tensor.Tensor, error)
	// Params returns the learnable parameters (possibly empty).
	Params() []*Param
}

// initializer seeds layer weights; layers that have parameters implement it.
type initializer interface {
	initWeights(rng *tensor.RNG)
}

// paramGrader is implemented by layers whose Backward is a parameter half
// followed by an input half: paramGrad accumulates the parameter gradients
// exactly as Backward does, and returns no dL/dinput. TrainStep calls it
// instead of Backward on the first layer, whose dL/dinput — the gradient
// with respect to the data — nothing reads.
type paramGrader interface {
	paramGrad(grad *tensor.Tensor) error
}

// reuse returns t when it already has the given shape and a new zeroed
// tensor of that shape otherwise: the one sizing rule behind every
// layer-owned output, dL/d(input) and backward temporary. A reused tensor
// holds whatever the previous pass left in it, so the caller overwrites
// every element or clears it first.
func reuse(t *tensor.Tensor, shape ...int) *tensor.Tensor {
	if t == nil || t.Dims() != len(shape) {
		return tensor.New(shape...)
	}
	for i, d := range shape {
		if t.Dim(i) != d {
			return tensor.New(shape...)
		}
	}
	return t
}

func batchOf(x *tensor.Tensor) (n int, rest []int, err error) {
	if x.Dims() < 2 {
		return 0, nil, fmt.Errorf("nn: batch tensor must have >=2 dims, got %v: %w", x.Shape(), ErrBadShape)
	}
	s := x.Shape()
	return s[0], s[1:], nil
}

func shapeVolume(s []int) int {
	v := 1
	for _, d := range s {
		v *= d
	}
	return v
}

func shapeEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
