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
// so each worker must own its own replica.
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
