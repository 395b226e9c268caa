package nn

import (
	"fmt"

	"shmcaffe/internal/tensor"
)

// Parallel runs several branches on the same NCHW input and concatenates
// their outputs along the channel dimension — the structure of a GoogLeNet
// inception module. Branches must preserve the spatial size.
type Parallel struct {
	name     string
	branches []Layer
	// forward caches
	inShape  []int // (N,C,H,W)
	outChans []int // channels per branch
	outH     int
	outW     int

	// Layer-owned scratch (see Layer).
	outs    []*tensor.Tensor // the branches' outputs of the last Forward
	gslices []*tensor.Tensor // per-branch slices of dL/doutput
	out, dx *tensor.Tensor
}

var _ Layer = (*Parallel)(nil)
var _ initializer = (*Parallel)(nil)

// NewParallel returns a channel-concatenating branch container.
func NewParallel(name string, branches ...Layer) *Parallel {
	return &Parallel{name: name, branches: branches}
}

// Name implements Layer.
func (p *Parallel) Name() string { return p.name }

// Params implements Layer.
func (p *Parallel) Params() []*Param {
	var out []*Param
	for _, b := range p.branches {
		out = append(out, b.Params()...)
	}
	return out
}

func (p *Parallel) initWeights(rng *tensor.RNG) {
	for _, b := range p.branches {
		if init, ok := b.(initializer); ok {
			init.initWeights(rng)
		}
	}
}

// OutShape implements Layer.
func (p *Parallel) OutShape(in []int) ([]int, error) {
	if len(p.branches) == 0 {
		return nil, fmt.Errorf("nn: parallel %q has no branches", p.name)
	}
	if len(in) != 3 {
		return nil, fmt.Errorf("nn: parallel %q wants (C,H,W), got %v: %w", p.name, in, ErrBadShape)
	}
	totalC := 0
	var h, w int
	for i, b := range p.branches {
		out, err := b.OutShape(in)
		if err != nil {
			return nil, fmt.Errorf("branch %d: %w", i, err)
		}
		if len(out) != 3 {
			return nil, fmt.Errorf("nn: parallel %q branch %d output %v: %w", p.name, i, out, ErrBadShape)
		}
		if i == 0 {
			h, w = out[1], out[2]
		} else if out[1] != h || out[2] != w {
			return nil, fmt.Errorf("nn: parallel %q branch %d spatial %dx%d != %dx%d: %w",
				p.name, i, out[1], out[2], h, w, ErrBadShape)
		}
		totalC += out[0]
	}
	return []int{totalC, h, w}, nil
}

// Forward implements Layer.
func (p *Parallel) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	n, rest, err := batchOf(x)
	if err != nil {
		return nil, err
	}
	if len(rest) != 3 {
		return nil, fmt.Errorf("nn: parallel %q input %v: %w", p.name, x.Shape(), ErrBadShape)
	}
	p.inShape = append(p.inShape[:0], n)
	p.inShape = append(p.inShape, rest...)
	if len(p.outs) != len(p.branches) {
		p.outs = make([]*tensor.Tensor, len(p.branches))
		p.outChans = make([]int, len(p.branches))
		p.gslices = make([]*tensor.Tensor, len(p.branches))
	}
	outs := p.outs
	totalC := 0
	for i, b := range p.branches {
		out, err := b.Forward(x, train)
		if err != nil {
			return nil, fmt.Errorf("parallel %q branch %d: %w", p.name, i, err)
		}
		outs[i] = out
		p.outChans[i] = out.Dim(1)
		totalC += out.Dim(1)
	}
	h, w := outs[0].Dim(2), outs[0].Dim(3)
	p.outH, p.outW = h, w
	plane := h * w
	p.out = reuse(p.out, n, totalC, h, w)
	y := p.out
	// Concatenate per sample along channels.
	for s := 0; s < n; s++ {
		dstOff := s * totalC * plane
		for i, out := range outs {
			chunk := p.outChans[i] * plane
			srcOff := s * chunk
			copy(y.Data()[dstOff:dstOff+chunk], out.Data()[srcOff:srcOff+chunk])
			dstOff += chunk
		}
	}
	return y, nil
}

// Backward implements Layer.
func (p *Parallel) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if p.inShape == nil {
		return nil, fmt.Errorf("nn: parallel %q backward before forward", p.name)
	}
	n := p.inShape[0]
	plane := p.outH * p.outW
	totalC := 0
	for _, c := range p.outChans {
		totalC += c
	}
	if grad.Len() != n*totalC*plane {
		return nil, fmt.Errorf("nn: parallel %q grad %v: %w", p.name, grad.Shape(), ErrBadShape)
	}
	// The branches' dL/dinput sum into dx from a clean slate.
	p.dx = reuse(p.dx, p.inShape...)
	dx := p.dx
	clear(dx.Data())
	chanOff := 0
	for i, b := range p.branches {
		chunk := p.outChans[i] * plane
		p.gslices[i] = reuse(p.gslices[i], n, p.outChans[i], p.outH, p.outW)
		gslice := p.gslices[i]
		for s := 0; s < n; s++ {
			srcOff := s*totalC*plane + chanOff*plane
			copy(gslice.Data()[s*chunk:(s+1)*chunk], grad.Data()[srcOff:srcOff+chunk])
		}
		dxi, err := b.Backward(gslice)
		if err != nil {
			return nil, fmt.Errorf("parallel %q branch %d backward: %w", p.name, i, err)
		}
		tensor.AxpySlice(1, dxi.Data(), dx.Data())
		chanOff += p.outChans[i]
	}
	return dx, nil
}

// Residual computes y = x + F(x), the identity-shortcut residual block of
// ResNet. The inner stack F must preserve the input shape.
type Residual struct {
	name    string
	inner   Layer
	out, dx *tensor.Tensor // layer-owned (see Layer)
}

var _ Layer = (*Residual)(nil)
var _ initializer = (*Residual)(nil)

// NewResidual wraps inner in an identity shortcut.
func NewResidual(name string, inner Layer) *Residual {
	return &Residual{name: name, inner: inner}
}

// Name implements Layer.
func (r *Residual) Name() string { return r.name }

// Params implements Layer.
func (r *Residual) Params() []*Param { return r.inner.Params() }

func (r *Residual) initWeights(rng *tensor.RNG) {
	if init, ok := r.inner.(initializer); ok {
		init.initWeights(rng)
	}
}

// OutShape implements Layer.
func (r *Residual) OutShape(in []int) ([]int, error) {
	out, err := r.inner.OutShape(in)
	if err != nil {
		return nil, err
	}
	if !shapeEqual(out, in) {
		return nil, fmt.Errorf("nn: residual %q inner maps %v to %v (must preserve): %w",
			r.name, in, out, ErrBadShape)
	}
	return out, nil
}

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	fx, err := r.inner.Forward(x, train)
	if err != nil {
		return nil, fmt.Errorf("residual %q: %w", r.name, err)
	}
	if fx.Len() != x.Len() {
		return nil, fmt.Errorf("nn: residual %q inner changed volume: %w", r.name, ErrBadShape)
	}
	// One fused pass y = F(x) + x instead of clone-then-add.
	r.out = reuse(r.out, fx.Shape()...)
	tensor.FusedAxpyCopy(1, x.Data(), fx.Data(), r.out.Data())
	return r.out, nil
}

// Backward implements Layer.
func (r *Residual) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	dInner, err := r.inner.Backward(grad)
	if err != nil {
		return nil, fmt.Errorf("residual %q backward: %w", r.name, err)
	}
	// Shortcut gradient: dx = dF + grad in one fused pass.
	r.dx = reuse(r.dx, dInner.Shape()...)
	tensor.FusedAxpyCopy(1, grad.Data(), dInner.Data(), r.dx.Data())
	return r.dx, nil
}

// Stack composes layers sequentially as one Layer, so Parallel branches and
// Residual inners can be multi-layer.
type Stack struct {
	name   string
	layers []Layer
}

var _ Layer = (*Stack)(nil)
var _ initializer = (*Stack)(nil)

// NewStack returns a sequential sub-network usable as a single layer.
func NewStack(name string, layers ...Layer) *Stack {
	return &Stack{name: name, layers: layers}
}

// Name implements Layer.
func (s *Stack) Name() string { return s.name }

// Params implements Layer.
func (s *Stack) Params() []*Param {
	var out []*Param
	for _, l := range s.layers {
		out = append(out, l.Params()...)
	}
	return out
}

func (s *Stack) initWeights(rng *tensor.RNG) {
	for _, l := range s.layers {
		if init, ok := l.(initializer); ok {
			init.initWeights(rng)
		}
	}
}

// OutShape implements Layer.
func (s *Stack) OutShape(in []int) ([]int, error) {
	if len(s.layers) == 0 {
		return nil, fmt.Errorf("nn: stack %q has no layers", s.name)
	}
	shape := in
	for _, l := range s.layers {
		out, err := l.OutShape(shape)
		if err != nil {
			return nil, fmt.Errorf("stack %q layer %q: %w", s.name, l.Name(), err)
		}
		shape = out
	}
	return shape, nil
}

// Forward implements Layer.
func (s *Stack) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	cur := x
	for _, l := range s.layers {
		next, err := l.Forward(cur, train)
		if err != nil {
			return nil, fmt.Errorf("stack %q layer %q: %w", s.name, l.Name(), err)
		}
		cur = next
	}
	return cur, nil
}

// Backward implements Layer.
func (s *Stack) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	cur := grad
	for i := len(s.layers) - 1; i >= 0; i-- {
		next, err := s.layers[i].Backward(cur)
		if err != nil {
			return nil, fmt.Errorf("stack %q layer %q backward: %w", s.name, s.layers[i].Name(), err)
		}
		cur = next
	}
	return cur, nil
}
