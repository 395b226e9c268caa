package nn

import (
	"fmt"

	"shmcaffe/internal/tensor"
)

// Network is a sequential stack of layers with a softmax cross-entropy head.
// Like Caffe, it keeps every parameter in one contiguous buffer: all
// Param.W are views into one weight slab and all Param.Grad into one
// gradient slab, in network order. Weights and Grads expose the slabs
// themselves, so the distributed solvers in this repository read, reduce
// and update the whole parameter vector in place — exactly the flat vector
// ShmCaffe stores in SMB segments — while FlatWeights/SetFlatWeights and
// FlatGrads/SetFlatGrads remain the copying interface.
type Network struct {
	name    string
	inShape []int // per-sample input shape
	layers  []Layer
	loss    SoftmaxLoss
	params  []*Param
	weights []float32 // every Param.W is a view into this slab
	grads   []float32 // every Param.Grad is a view into this slab
}

// NewNetwork assembles a network for per-sample input shape inShape,
// validating layer-to-layer shape compatibility, and packs every
// parameter's weights and gradients into the network's two slabs (current
// weights are kept; gradients start cleared). A parameter may belong to one
// network only, once: a Param that appears twice, or that an earlier
// NewNetwork already packed, is an error. So is a layer instance listed
// twice anywhere in the tree, inside a Stack, Parallel or Residual too: its
// second use would overwrite the output and the backward caches of the
// first (see Layer).
func NewNetwork(name string, inShape []int, layers ...Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("nn: network %q has no layers", name)
	}
	if err := checkLayersOnce(name, layers); err != nil {
		return nil, err
	}
	shape := append([]int(nil), inShape...)
	var params []*Param
	seen := make(map[*Param]bool)
	total := 0
	for _, l := range layers {
		out, err := l.OutShape(shape)
		if err != nil {
			return nil, fmt.Errorf("network %q layer %q: %w", name, l.Name(), err)
		}
		shape = out
		for _, p := range l.Params() {
			if seen[p] {
				return nil, fmt.Errorf("nn: network %q lists param %q twice", name, p.Name)
			}
			if p.owner != nil {
				return nil, fmt.Errorf("nn: network %q: param %q already belongs to network %q", name, p.Name, p.owner.name)
			}
			seen[p] = true
			params = append(params, p)
			total += p.W.Len()
		}
	}
	if shapeVolume(shape) < 2 {
		return nil, fmt.Errorf("nn: network %q final shape %v is not a class distribution", name, shape)
	}
	n := &Network{
		name:    name,
		inShape: append([]int(nil), inShape...),
		layers:  layers,
		params:  params,
		weights: make([]float32, total),
		grads:   make([]float32, total),
	}
	off := 0
	for _, p := range params {
		end := off + p.W.Len()
		copy(n.weights[off:end], p.W.Data())
		p.W = slabView(n.weights, off, end, p.W.Shape())
		// Gradients start cleared and the slab stays untouched until the
		// first backward pass, so a network that only runs Forward (a
		// serving replica) never makes its gradient pages resident.
		p.Grad = slabView(n.grads, off, end, p.Grad.Shape())
		p.owner = n
		off = end
	}
	return n, nil
}

// checkLayersOnce walks the layer tree and fails on the first layer
// instance it meets twice (every Layer is a pointer type, so equal keys
// are one instance).
func checkLayersOnce(name string, layers []Layer) error {
	seen := make(map[Layer]bool)
	var walk func([]Layer) error
	walk = func(ls []Layer) error {
		for _, l := range ls {
			if seen[l] {
				return fmt.Errorf("nn: network %q lists layer %q twice", name, l.Name())
			}
			seen[l] = true
			if err := walk(subLayers(l)); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(layers)
}

// subLayers returns a container layer's direct children: a Stack's layers,
// a Parallel's branches, a Residual's inner stack.
func subLayers(l Layer) []Layer {
	switch c := l.(type) {
	case *Stack:
		return c.layers
	case *Parallel:
		return c.branches
	case *Residual:
		return []Layer{c.inner}
	}
	return nil
}

// slabView returns slab[off:end] as a tensor of the given shape, capped so
// no append through it can spill into a neighbouring parameter.
func slabView(slab []float32, off, end int, shape []int) *tensor.Tensor {
	view, err := tensor.FromSlice(slab[off:end:end], shape...)
	if err != nil {
		panic(err) // the region has exactly the shape's volume
	}
	return view
}

// Name returns the network name.
func (n *Network) Name() string { return n.name }

// InShape returns the per-sample input shape.
func (n *Network) InShape() []int { return append([]int(nil), n.inShape...) }

// NumParams returns the number of learnable scalar parameters.
func (n *Network) NumParams() int { return len(n.weights) }

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
// The logits are the last layer's output (see Layer): valid until the
// network's next Forward or TrainStep, so a caller that keeps them copies.
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
// parameter gradients into Grads — which must be clear on entry: an
// SGDSolver keeps them so (ApplyUpdate consumes them), other callers
// ZeroGrads first. It returns the mean loss and the probability tensor,
// which the network's loss head owns until the next TrainStep or Evaluate.
// The first layer computes no dL/dinput when it can skip it (paramGrader).
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
		if pg, ok := n.layers[i].(paramGrader); ok && i == 0 {
			err = pg.paramGrad(grad)
		} else {
			grad, err = n.layers[i].Backward(grad)
		}
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
	loss, probs, err := n.loss.Forward(logits, labels)
	if err != nil {
		return 0, 0, err
	}
	acc, err = TopKAccuracy(probs, labels, topK)
	if err != nil {
		return 0, 0, err
	}
	return loss, acc, nil
}

// Weights returns the weight slab itself — not a copy. Every Param.W is a
// view into it, so writing through it writes the parameters; callers that
// hold it across a call that updates the network see the update.
func (n *Network) Weights() []float32 { return n.weights }

// Grads returns the gradient slab itself — not a copy — in the same layout
// as Weights.
func (n *Network) Grads() []float32 { return n.grads }

// ZeroGrads clears all parameter gradients.
func (n *Network) ZeroGrads() { clear(n.grads) }

// FlatWeights copies all parameters into dst (len >= NumParams) in network
// order and returns dst; if dst is nil a new slice is allocated. A non-nil
// dst that is too short is a caller bug and panics — callers that reuse a
// buffer ignore the return value, so growing it here would leave them with
// a stale one.
func (n *Network) FlatWeights(dst []float32) []float32 {
	return n.copyOut("FlatWeights", "weights", n.weights, dst)
}

// SetFlatWeights overwrites all parameters from src (len >= NumParams).
func (n *Network) SetFlatWeights(src []float32) error {
	return n.copyIn("weights", n.weights, src)
}

// FlatGrads copies all gradients into dst in network order and returns dst,
// with FlatWeights' contract: nil allocates, a short non-nil dst panics.
func (n *Network) FlatGrads(dst []float32) []float32 {
	return n.copyOut("FlatGrads", "grads", n.grads, dst)
}

// SetFlatGrads overwrites all gradients from src; used after collective
// gradient aggregation (allreduce) replaces local gradients.
func (n *Network) SetFlatGrads(src []float32) error {
	return n.copyIn("grads", n.grads, src)
}

func (n *Network) copyOut(fn, what string, slab, dst []float32) []float32 {
	if len(dst) < len(slab) {
		if dst != nil {
			panic(fmt.Sprintf("nn: network %q has %d %s, %s dst holds %d", n.name, len(slab), what, fn, len(dst)))
		}
		dst = make([]float32, len(slab))
	}
	copy(dst, slab)
	return dst
}

func (n *Network) copyIn(what string, slab, src []float32) error {
	if len(src) < len(slab) {
		return fmt.Errorf("nn: network %q needs %d %s, got %d: %w", n.name, len(slab), what, len(src), ErrBadShape)
	}
	copy(slab, src)
	return nil
}
