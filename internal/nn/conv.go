package nn

import (
	"fmt"

	"shmcaffe/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW batches, lowered to GEMM via
// im2col exactly as Caffe does.
type Conv2D struct {
	name     string
	inC      int
	outC     int
	geom     tensor.ConvParams
	w, b     *Param
	lastIn   *tensor.Tensor
	lastCols []*tensor.Tensor // per-sample im2col buffers kept for backward
	inH, inW int
}

var _ Layer = (*Conv2D)(nil)
var _ initializer = (*Conv2D)(nil)
var _ paramGrader = (*Conv2D)(nil)

// NewConv2D returns a convolution layer with outC filters of size
// kernel×kernel over inC channels.
func NewConv2D(name string, inC, outC, kernel, stride, pad int) *Conv2D {
	geom := tensor.ConvParams{
		KernelH: kernel, KernelW: kernel,
		StrideH: stride, StrideW: stride,
		PadH: pad, PadW: pad,
	}
	return &Conv2D{
		name: name,
		inC:  inC,
		outC: outC,
		geom: geom,
		w:    newParam(name+".w", outC, inC*kernel*kernel),
		b:    newParam(name+".b", outC),
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != c.inC {
		return nil, fmt.Errorf("nn: conv %q wants (%d,H,W), got %v: %w", c.name, c.inC, in, ErrBadShape)
	}
	if err := c.geom.Validate(in[1], in[2]); err != nil {
		return nil, err
	}
	oh, ow := c.geom.OutSize(in[1], in[2])
	return []int{c.outC, oh, ow}, nil
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

func (c *Conv2D) initWeights(rng *tensor.RNG) {
	rng.XavierInit(c.w.W, c.kvol())
	c.b.W.Zero()
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	n, rest, err := batchOf(x)
	if err != nil {
		return nil, err
	}
	if len(rest) != 3 || rest[0] != c.inC {
		return nil, fmt.Errorf("nn: conv %q input %v: %w", c.name, x.Shape(), ErrBadShape)
	}
	h, w := rest[1], rest[2]
	if err := c.geom.Validate(h, w); err != nil {
		return nil, err
	}
	oh, ow := c.geom.OutSize(h, w)
	kvol := c.kvol()

	c.lastIn = x
	c.inH, c.inW = h, w
	c.lastCols = make([]*tensor.Tensor, n)

	out := tensor.New(n, c.outC, oh, ow)
	sampleIn := h * w * c.inC
	sampleOut := c.outC * oh * ow
	for i := 0; i < n; i++ {
		col := tensor.New(kvol, oh*ow)
		tensor.Im2Col(x.Data()[i*sampleIn:(i+1)*sampleIn], c.inC, h, w, c.geom, col.Data())
		c.lastCols[i] = col
		y, err := tensor.FromSlice(out.Data()[i*sampleOut:(i+1)*sampleOut], c.outC, oh*ow)
		if err != nil {
			return nil, err
		}
		if err := tensor.MatMul(c.w.W, col, y); err != nil {
			return nil, err
		}
		// Bias per output channel.
		for oc := 0; oc < c.outC; oc++ {
			bias := c.b.W.Data()[oc]
			row := y.Data()[oc*oh*ow : (oc+1)*oh*ow]
			for j := range row {
				row[j] += bias
			}
		}
	}
	return out, nil
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if err := c.paramGrad(grad); err != nil {
		return nil, err
	}
	return c.inputGrad(grad)
}

// paramGrad accumulates the filter and bias gradients sample by sample
// (see paramGrader).
func (c *Conv2D) paramGrad(grad *tensor.Tensor) error {
	n, ohow, err := c.gradGeom(grad)
	if err != nil {
		return err
	}
	dwTmp := tensor.New(c.outC, c.kvol())
	for i := 0; i < n; i++ {
		g, err := c.sampleGrad(grad, i, ohow)
		if err != nil {
			return err
		}
		// dW += g · colᵀ
		if err := tensor.MatMulTransB(g, c.lastCols[i], dwTmp); err != nil {
			return err
		}
		tensor.AxpySlice(1, dwTmp.Data(), c.w.Grad.Data())
		// db += row sums of g
		for oc := 0; oc < c.outC; oc++ {
			row := g.Data()[oc*ohow : (oc+1)*ohow]
			var s float32
			for _, v := range row {
				s += v
			}
			c.b.Grad.Data()[oc] += s
		}
	}
	return nil
}

// inputGrad returns dX: per sample dcol = Wᵀ g, scattered back by col2im.
func (c *Conv2D) inputGrad(grad *tensor.Tensor) (*tensor.Tensor, error) {
	n, ohow, err := c.gradGeom(grad)
	if err != nil {
		return nil, err
	}
	h, w := c.inH, c.inW
	sampleIn := c.inC * h * w
	dx := tensor.New(n, c.inC, h, w)
	// One dcol for every sample: MatMulTransA overwrites it.
	dcol := tensor.New(c.kvol(), ohow)
	for i := 0; i < n; i++ {
		g, err := c.sampleGrad(grad, i, ohow)
		if err != nil {
			return nil, err
		}
		if err := tensor.MatMulTransA(c.w.W, g, dcol); err != nil {
			return nil, err
		}
		tensor.Col2Im(dcol.Data(), c.inC, h, w, c.geom, dx.Data()[i*sampleIn:(i+1)*sampleIn])
	}
	return dx, nil
}

// gradGeom checks dL/doutput against the cached forward and returns the
// batch size and the output plane size oh·ow.
func (c *Conv2D) gradGeom(grad *tensor.Tensor) (n, ohow int, err error) {
	if c.lastIn == nil {
		return 0, 0, fmt.Errorf("nn: conv %q backward before forward", c.name)
	}
	n = c.lastIn.Dim(0)
	oh, ow := c.geom.OutSize(c.inH, c.inW)
	if grad.Len() != n*c.outC*oh*ow {
		return 0, 0, fmt.Errorf("nn: conv %q grad %v: %w", c.name, grad.Shape(), ErrBadShape)
	}
	return n, oh * ow, nil
}

// sampleGrad views sample i of dL/doutput as the (outC × oh·ow) matrix.
func (c *Conv2D) sampleGrad(grad *tensor.Tensor, i, ohow int) (*tensor.Tensor, error) {
	size := c.outC * ohow
	return tensor.FromSlice(grad.Data()[i*size:(i+1)*size], c.outC, ohow)
}

// kvol is the im2col row count: one per (input channel, kernel tap).
func (c *Conv2D) kvol() int { return c.inC * c.geom.KernelH * c.geom.KernelW }

// MaxPool2D is a max pooling layer over NCHW batches.
type MaxPool2D struct {
	name   string
	geom   tensor.ConvParams
	argmax []int // flat input index chosen for each output element
	inN    int
	inC    int
	inH    int
	inW    int
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D returns a pooling layer with a square window.
func NewMaxPool2D(name string, window, stride int) *MaxPool2D {
	return &MaxPool2D{
		name: name,
		geom: tensor.ConvParams{
			KernelH: window, KernelW: window,
			StrideH: stride, StrideW: stride,
		},
	}
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return m.name }

// OutShape implements Layer.
func (m *MaxPool2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("nn: maxpool %q wants (C,H,W), got %v: %w", m.name, in, ErrBadShape)
	}
	if err := m.geom.Validate(in[1], in[2]); err != nil {
		return nil, err
	}
	oh, ow := m.geom.OutSize(in[1], in[2])
	return []int{in[0], oh, ow}, nil
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	n, rest, err := batchOf(x)
	if err != nil {
		return nil, err
	}
	if len(rest) != 3 {
		return nil, fmt.Errorf("nn: maxpool %q input %v: %w", m.name, x.Shape(), ErrBadShape)
	}
	ch, h, w := rest[0], rest[1], rest[2]
	oh, ow := m.geom.OutSize(h, w)
	m.inN, m.inC, m.inH, m.inW = n, ch, h, w

	out := tensor.New(n, ch, oh, ow)
	m.argmax = make([]int, out.Len())
	outIdx := 0
	for i := 0; i < n; i++ {
		for cc := 0; cc < ch; cc++ {
			plane := x.Data()[(i*ch+cc)*h*w : (i*ch+cc+1)*h*w]
			planeBase := (i*ch + cc) * h * w
			for y := 0; y < oh; y++ {
				for xx := 0; xx < ow; xx++ {
					bestVal := float32(0)
					bestIdx := -1
					for ky := 0; ky < m.geom.KernelH; ky++ {
						iy := y*m.geom.StrideH + ky
						if iy >= h {
							continue
						}
						for kx := 0; kx < m.geom.KernelW; kx++ {
							ix := xx*m.geom.StrideW + kx
							if ix >= w {
								continue
							}
							v := plane[iy*w+ix]
							if bestIdx < 0 || v > bestVal {
								bestVal = v
								bestIdx = planeBase + iy*w + ix
							}
						}
					}
					out.Data()[outIdx] = bestVal
					m.argmax[outIdx] = bestIdx
					outIdx++
				}
			}
		}
	}
	return out, nil
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if m.argmax == nil {
		return nil, fmt.Errorf("nn: maxpool %q backward before forward", m.name)
	}
	if grad.Len() != len(m.argmax) {
		return nil, fmt.Errorf("nn: maxpool %q grad %v: %w", m.name, grad.Shape(), ErrBadShape)
	}
	dx := tensor.New(m.inN, m.inC, m.inH, m.inW)
	for i, src := range m.argmax {
		if src >= 0 {
			dx.Data()[src] += grad.Data()[i]
		}
	}
	return dx, nil
}

// AvgPool2D performs global average pooling over each channel plane,
// reducing (N,C,H,W) to (N,C,1,1). Inception-style heads end with it.
type AvgPool2D struct {
	name string
	inN  int
	inC  int
	inH  int
	inW  int
}

var _ Layer = (*AvgPool2D)(nil)

// NewGlobalAvgPool returns a global average pooling layer.
func NewGlobalAvgPool(name string) *AvgPool2D { return &AvgPool2D{name: name} }

// Name implements Layer.
func (a *AvgPool2D) Name() string { return a.name }

// OutShape implements Layer.
func (a *AvgPool2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("nn: avgpool %q wants (C,H,W), got %v: %w", a.name, in, ErrBadShape)
	}
	return []int{in[0], 1, 1}, nil
}

// Params implements Layer.
func (a *AvgPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (a *AvgPool2D) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	n, rest, err := batchOf(x)
	if err != nil {
		return nil, err
	}
	if len(rest) != 3 {
		return nil, fmt.Errorf("nn: avgpool %q input %v: %w", a.name, x.Shape(), ErrBadShape)
	}
	ch, h, w := rest[0], rest[1], rest[2]
	a.inN, a.inC, a.inH, a.inW = n, ch, h, w
	out := tensor.New(n, ch, 1, 1)
	inv := 1 / float32(h*w)
	for i := 0; i < n*ch; i++ {
		plane := x.Data()[i*h*w : (i+1)*h*w]
		var s float32
		for _, v := range plane {
			s += v
		}
		out.Data()[i] = s * inv
	}
	return out, nil
}

// Backward implements Layer.
func (a *AvgPool2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if a.inH == 0 {
		return nil, fmt.Errorf("nn: avgpool %q backward before forward", a.name)
	}
	if grad.Len() != a.inN*a.inC {
		return nil, fmt.Errorf("nn: avgpool %q grad %v: %w", a.name, grad.Shape(), ErrBadShape)
	}
	dx := tensor.New(a.inN, a.inC, a.inH, a.inW)
	inv := 1 / float32(a.inH*a.inW)
	for i := 0; i < a.inN*a.inC; i++ {
		g := grad.Data()[i] * inv
		plane := dx.Data()[i*a.inH*a.inW : (i+1)*a.inH*a.inW]
		for j := range plane {
			plane[j] = g
		}
	}
	return dx, nil
}
