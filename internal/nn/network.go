package nn

import (
	"fmt"

	"shmcaffe/internal/tensor"
)

// Network is a sequential stack of layers with a softmax cross-entropy head.
// It exposes Caffe-style flat weight/gradient vectors: every distributed
// solver in this repository moves parameters as one contiguous float32
// vector, which is exactly what ShmCaffe stores in SMB segments.
type Network struct {
	name    string
	inShape []int // per-sample input shape
	layers  []Layer
	loss    SoftmaxLoss
	params  []*Param
	total   int // total parameter elements
}

// NewNetwork assembles a network for per-sample input shape inShape,
// validating layer-to-layer shape compatibility.
func NewNetwork(name string, inShape []int, layers ...Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("nn: network %q has no layers", name)
	}
	shape := append([]int(nil), inShape...)
	var params []*Param
	total := 0
	for _, l := range layers {
		out, err := l.OutShape(shape)
		if err != nil {
			return nil, fmt.Errorf("network %q layer %q: %w", name, l.Name(), err)
		}
		shape = out
		for _, p := range l.Params() {
			params = append(params, p)
			total += p.W.Len()
		}
	}
	if shapeVolume(shape) < 2 {
		return nil, fmt.Errorf("nn: network %q final shape %v is not a class distribution", name, shape)
	}
	return &Network{
		name:    name,
		inShape: append([]int(nil), inShape...),
		layers:  layers,
		params:  params,
		total:   total,
	}, nil
}

// Name returns the network name.
func (n *Network) Name() string { return n.name }

// InShape returns the per-sample input shape.
func (n *Network) InShape() []int { return append([]int(nil), n.inShape...) }

// NumParams returns the number of learnable scalar parameters.
func (n *Network) NumParams() int { return n.total }

// Params returns the parameter blobs in network order.
func (n *Network) Params() []*Param { return n.params }

// InitWeights seeds every parameter using the given RNG (Xavier for weights,
// zero for biases). Workers sharing a seed start from identical replicas.
func (n *Network) InitWeights(rng *tensor.RNG) {
	for _, l := range n.layers {
		if init, ok := l.(initializer); ok {
			init.initWeights(rng)
		}
	}
}

// Forward runs the network on batch x (batch-first) and returns the logits.
func (n *Network) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	cur := x
	for _, l := range n.layers {
		next, err := l.Forward(cur, train)
		if err != nil {
			return nil, fmt.Errorf("network %q forward %q: %w", n.name, l.Name(), err)
		}
		cur = next
	}
	return cur, nil
}

// TrainStep runs forward + loss + backward for one minibatch, accumulating
// parameter gradients (callers must ZeroGrads first). It returns the mean
// loss and the probability tensor.
func (n *Network) TrainStep(x *tensor.Tensor, labels []int) (float64, *tensor.Tensor, error) {
	logits, err := n.Forward(x, true)
	if err != nil {
		return 0, nil, err
	}
	loss, probs, err := n.loss.Forward(logits, labels)
	if err != nil {
		return 0, nil, err
	}
	grad, err := n.loss.Backward()
	if err != nil {
		return 0, nil, err
	}
	for i := len(n.layers) - 1; i >= 0; i-- {
		grad, err = n.layers[i].Backward(grad)
		if err != nil {
			return 0, nil, fmt.Errorf("network %q backward %q: %w", n.name, n.layers[i].Name(), err)
		}
	}
	return loss, probs, nil
}

// Evaluate computes mean loss and top-k accuracy on a batch without
// touching gradients.
func (n *Network) Evaluate(x *tensor.Tensor, labels []int, topK int) (loss, acc float64, err error) {
	logits, err := n.Forward(x, false)
	if err != nil {
		return 0, 0, err
	}
	var head SoftmaxLoss
	loss, probs, err := head.Forward(logits, labels)
	if err != nil {
		return 0, 0, err
	}
	acc, err = TopKAccuracy(probs, labels, topK)
	if err != nil {
		return 0, 0, err
	}
	return loss, acc, nil
}

// ZeroGrads clears all parameter gradients.
func (n *Network) ZeroGrads() {
	for _, p := range n.params {
		p.Grad.Zero()
	}
}

// FlatWeights copies all parameters into dst (len >= NumParams) in network
// order and returns dst; if dst is nil a new slice is allocated. A non-nil
// dst that is too short is a caller bug and panics — callers that reuse a
// buffer ignore the return value, so growing it here would leave them with
// a stale one.
func (n *Network) FlatWeights(dst []float32) []float32 {
	if len(dst) < n.total {
		if dst != nil {
			panic(fmt.Sprintf("nn: network %q has %d weights, FlatWeights dst holds %d", n.name, n.total, len(dst)))
		}
		dst = make([]float32, n.total)
	}
	off := 0
	for _, p := range n.params {
		copy(dst[off:], p.W.Data())
		off += p.W.Len()
	}
	return dst
}

// SetFlatWeights overwrites all parameters from src (len >= NumParams).
func (n *Network) SetFlatWeights(src []float32) error {
	if len(src) < n.total {
		return fmt.Errorf("nn: network %q needs %d weights, got %d: %w", n.name, n.total, len(src), ErrBadShape)
	}
	off := 0
	for _, p := range n.params {
		copy(p.W.Data(), src[off:off+p.W.Len()])
		off += p.W.Len()
	}
	return nil
}

// FlatGrads copies all gradients into dst in network order (allocating when
// dst is nil) and returns dst.
func (n *Network) FlatGrads(dst []float32) []float32 {
	if dst == nil {
		dst = make([]float32, n.total)
	}
	off := 0
	for _, p := range n.params {
		copy(dst[off:], p.Grad.Data())
		off += p.Grad.Len()
	}
	return dst
}

// SetFlatGrads overwrites all gradients from src; used after collective
// gradient aggregation (allreduce) replaces local gradients.
func (n *Network) SetFlatGrads(src []float32) error {
	if len(src) < n.total {
		return fmt.Errorf("nn: network %q needs %d grads, got %d: %w", n.name, n.total, len(src), ErrBadShape)
	}
	off := 0
	for _, p := range n.params {
		copy(p.Grad.Data(), src[off:off+p.Grad.Len()])
		off += p.Grad.Len()
	}
	return nil
}
