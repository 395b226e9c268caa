package nn

import (
	"fmt"
	"math"

	"shmcaffe/internal/tensor"
)

// Sigmoid is the logistic activation.
type Sigmoid struct {
	name    string
	out, dx *tensor.Tensor // layer-owned (see Layer)
}

var _ Layer = (*Sigmoid)(nil)

// NewSigmoid returns a sigmoid activation layer.
func NewSigmoid(name string) *Sigmoid { return &Sigmoid{name: name} }

// Name implements Layer.
func (s *Sigmoid) Name() string { return s.name }

// OutShape implements Layer.
func (s *Sigmoid) OutShape(in []int) ([]int, error) { return in, nil }

// Params implements Layer.
func (s *Sigmoid) Params() []*Param { return nil }

// Forward implements Layer.
func (s *Sigmoid) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	s.out = reuse(s.out, x.Shape()...)
	y := s.out.Data()
	for i, v := range x.Data() {
		y[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	return s.out, nil
}

// Backward implements Layer.
func (s *Sigmoid) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if s.out == nil {
		return nil, fmt.Errorf("nn: sigmoid %q backward before forward", s.name)
	}
	if grad.Len() != s.out.Len() {
		return nil, fmt.Errorf("nn: sigmoid %q grad size: %w", s.name, ErrBadShape)
	}
	s.dx = reuse(s.dx, grad.Shape()...)
	dx := s.dx.Data()
	for i, g := range grad.Data() {
		y := s.out.Data()[i]
		dx[i] = g * y * (1 - y)
	}
	return s.dx, nil
}

// Tanh is the hyperbolic tangent activation.
type Tanh struct {
	name    string
	out, dx *tensor.Tensor // layer-owned (see Layer)
}

var _ Layer = (*Tanh)(nil)

// NewTanh returns a tanh activation layer.
func NewTanh(name string) *Tanh { return &Tanh{name: name} }

// Name implements Layer.
func (t *Tanh) Name() string { return t.name }

// OutShape implements Layer.
func (t *Tanh) OutShape(in []int) ([]int, error) { return in, nil }

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	t.out = reuse(t.out, x.Shape()...)
	y := t.out.Data()
	for i, v := range x.Data() {
		y[i] = float32(math.Tanh(float64(v)))
	}
	return t.out, nil
}

// Backward implements Layer.
func (t *Tanh) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if t.out == nil {
		return nil, fmt.Errorf("nn: tanh %q backward before forward", t.name)
	}
	if grad.Len() != t.out.Len() {
		return nil, fmt.Errorf("nn: tanh %q grad size: %w", t.name, ErrBadShape)
	}
	t.dx = reuse(t.dx, grad.Shape()...)
	dx := t.dx.Data()
	for i, g := range grad.Data() {
		y := t.out.Data()[i]
		dx[i] = g * (1 - y*y)
	}
	return t.dx, nil
}
