package nn

import (
	"fmt"

	"shmcaffe/internal/tensor"
)

// Dense is a fully connected layer: y = xW + b with x (N×in), W (in×out).
type Dense struct {
	name    string
	in, out int
	w, b    *Param

	lastIn *tensor.Tensor // cached forward input for backward
	y, dx  *tensor.Tensor // layer-owned (see Layer)
}

var _ Layer = (*Dense)(nil)
var _ initializer = (*Dense)(nil)
var _ paramGrader = (*Dense)(nil)

// NewDense returns a fully connected layer mapping in features to out.
func NewDense(name string, in, out int) *Dense {
	return &Dense{
		name: name,
		in:   in,
		out:  out,
		w:    newParam(name+".w", in, out),
		b:    newParam(name+".b", out),
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// OutShape implements Layer.
func (d *Dense) OutShape(in []int) ([]int, error) {
	if shapeVolume(in) != d.in {
		return nil, fmt.Errorf("nn: dense %q expects %d features, got shape %v: %w", d.name, d.in, in, ErrBadShape)
	}
	return []int{d.out}, nil
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

func (d *Dense) initWeights(rng *tensor.RNG) {
	rng.XavierInit(d.w.W, d.in)
	d.b.W.Zero()
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	n, rest, err := batchOf(x)
	if err != nil {
		return nil, err
	}
	if shapeVolume(rest) != d.in {
		return nil, fmt.Errorf("nn: dense %q input %v: %w", d.name, x.Shape(), ErrBadShape)
	}
	x2, err := x.Reshape(n, d.in)
	if err != nil {
		return nil, err
	}
	d.lastIn = x2
	d.y = reuse(d.y, n, d.out)
	y := d.y
	if err := tensor.MatMul(x2, d.w.W, y); err != nil {
		return nil, err
	}
	// Add bias per row: row[j] += b[j], the dispatched add.
	for i := 0; i < n; i++ {
		tensor.AxpySlice(1, d.b.W.Data(), y.Data()[i*d.out:(i+1)*d.out])
	}
	return y, nil
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if err := d.paramGrad(grad); err != nil {
		return nil, err
	}
	return d.inputGrad(grad)
}

// paramGrad accumulates the weight and bias gradients (see paramGrader).
func (d *Dense) paramGrad(grad *tensor.Tensor) error {
	g, err := d.gradRows(grad)
	if err != nil {
		return err
	}
	// dW += xᵀ g, accumulated straight into the gradient: no in×out
	// temporary, no second pass to add it in.
	if err := tensor.MatMulTransAAdd(d.lastIn, g, d.w.Grad); err != nil {
		return err
	}
	// db += column sums of g: db[j] += row[j], a row at a time.
	for i := 0; i < g.Dim(0); i++ {
		tensor.AxpySlice(1, g.Data()[i*d.out:(i+1)*d.out], d.b.Grad.Data())
	}
	return nil
}

// inputGrad returns dX = g Wᵀ.
func (d *Dense) inputGrad(grad *tensor.Tensor) (*tensor.Tensor, error) {
	g, err := d.gradRows(grad)
	if err != nil {
		return nil, err
	}
	d.dx = reuse(d.dx, g.Dim(0), d.in)
	dx := d.dx
	if err := tensor.MatMulTransB(g, d.w.W, dx); err != nil {
		return nil, err
	}
	return dx, nil
}

// sweep is Backward fused with the solver's momentum update of W and b
// (tensor.FusedDenseStep): one pass over the rows of W forms dL/dinput
// from the pre-update weights and each row's gradient in a register, and
// applies u to the row at once. The gradient views are neither read nor
// written.
// With wantDX false (the first layer) it returns nil and forms no
// dL/dinput.
func (d *Dense) sweep(grad *tensor.Tensor, u *momentum, vw, vb *tensor.Tensor, wantDX bool) (*tensor.Tensor, error) {
	g, err := d.gradRows(grad)
	if err != nil {
		return nil, err
	}
	var dx *tensor.Tensor
	if wantDX {
		d.dx = reuse(d.dx, g.Dim(0), d.in)
		dx = d.dx
	}
	if err := tensor.FusedDenseStep(u.lr, u.mom, u.wd, u.clip, u.nesterov, d.lastIn, g, d.w.W, vw, d.b.W, vb, dx); err != nil {
		return nil, err
	}
	return dx, nil
}

// gradRows views dL/doutput as the (N×out) matrix of the cached forward.
func (d *Dense) gradRows(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if d.lastIn == nil {
		return nil, fmt.Errorf("nn: dense %q backward before forward", d.name)
	}
	return grad.Reshape(d.lastIn.Dim(0), d.out)
}

// ReLU is a rectified linear activation.
type ReLU struct {
	name    string
	out, dx *tensor.Tensor // layer-owned (see Layer); Backward masks by out
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// OutShape implements Layer.
func (r *ReLU) OutShape(in []int) ([]int, error) { return in, nil }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer: y = x where x > 0 and +0 everywhere else (NaN
// and -0 included) — what a `v > 0` branch produces, without its
// mispredictions on random signs (tensor.MaskPositive with x as both the
// values and the mask).
func (r *ReLU) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	r.out = reuse(r.out, x.Shape()...)
	src := x.Data()
	tensor.MaskPositive(r.out.Data()[:len(src)], src, src)
	return r.out, nil
}

// Backward implements Layer: dx = g where the layer's own output is > 0
// and +0 elsewhere. The output is > 0 exactly where the input was, so it
// is the mask.
func (r *ReLU) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if r.out == nil || r.out.Len() != grad.Len() {
		return nil, fmt.Errorf("nn: relu %q backward before forward: %w", r.name, ErrBadShape)
	}
	r.dx = reuse(r.dx, grad.Shape()...)
	g := grad.Data()
	tensor.MaskPositive(r.dx.Data()[:len(g)], g, r.out.Data()[:len(g)])
	return r.dx, nil
}

// Flatten reshapes (N, ...) into (N, volume).
type Flatten struct {
	name    string
	inShape []int
}

var _ Layer = (*Flatten)(nil)

// NewFlatten returns a flattening layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// OutShape implements Layer.
func (f *Flatten) OutShape(in []int) ([]int, error) {
	return []int{shapeVolume(in)}, nil
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	n, rest, err := batchOf(x)
	if err != nil {
		return nil, err
	}
	f.inShape = append([]int{n}, rest...)
	return x.Reshape(n, shapeVolume(rest))
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if f.inShape == nil {
		return nil, fmt.Errorf("nn: flatten %q backward before forward", f.name)
	}
	return grad.Reshape(f.inShape...)
}

// Dropout zeroes activations with probability p at train time and scales the
// survivors by 1/(1-p) (inverted dropout), passing through untouched at eval.
type Dropout struct {
	name    string
	p       float64
	rng     *tensor.RNG
	keep    []bool
	out, dx *tensor.Tensor // layer-owned at train time (see Layer)
}

var _ Layer = (*Dropout)(nil)

// NewDropout returns a dropout layer with drop probability p in [0, 1).
func NewDropout(name string, p float64, seed uint64) *Dropout {
	return &Dropout{name: name, p: p, rng: tensor.NewRNG(seed)}
}

// Name implements Layer.
func (d *Dropout) Name() string { return d.name }

// OutShape implements Layer.
func (d *Dropout) OutShape(in []int) ([]int, error) { return in, nil }

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if !train || d.p <= 0 {
		d.keep = nil
		return x, nil
	}
	d.out = reuse(d.out, x.Shape()...)
	y := d.out.Data()
	if cap(d.keep) < len(y) {
		d.keep = make([]bool, len(y))
	}
	d.keep = d.keep[:len(y)]
	scale := float32(1 / (1 - d.p))
	for i, v := range x.Data() {
		if d.rng.Float64() < d.p {
			d.keep[i] = false
			y[i] = 0
		} else {
			d.keep[i] = true
			y[i] = v * scale
		}
	}
	return d.out, nil
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if d.keep == nil {
		return grad, nil
	}
	if len(d.keep) != grad.Len() {
		return nil, fmt.Errorf("nn: dropout %q grad size mismatch: %w", d.name, ErrBadShape)
	}
	d.dx = reuse(d.dx, grad.Shape()...)
	dx := d.dx.Data()
	scale := float32(1 / (1 - d.p))
	for i, g := range grad.Data() {
		if d.keep[i] {
			dx[i] = g * scale
		} else {
			dx[i] = 0
		}
	}
	return d.dx, nil
}
