package nn

import (
	"fmt"
	"math"

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
	inH, inW int

	// Layer-owned scratch (see Layer), reused while the batch shape holds.
	cols  *tensor.Tensor // (n, kvol, oh·ow): the batch's im2col columns, kept for backward
	out   *tensor.Tensor
	dx    *tensor.Tensor
	dcol  *tensor.Tensor // (kvol, oh·ow): one sample's Wᵀ·g
	dwTmp *tensor.Tensor // (outC, kvol): one sample's g·colᵀ
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
	c.cols = reuse(c.cols, n, kvol, oh*ow)
	c.out = reuse(c.out, n, c.outC, oh, ow)
	out := c.out

	sampleIn := h * w * c.inC
	sampleCol := kvol * oh * ow
	sampleOut := c.outC * oh * ow
	for i := 0; i < n; i++ {
		col := c.cols.Data()[i*sampleCol : (i+1)*sampleCol]
		tensor.Im2Col(x.Data()[i*sampleIn:(i+1)*sampleIn], c.inC, h, w, c.geom, col)
		// y = W · col, (outC × kvol)(kvol × oh·ow).
		y := out.Data()[i*sampleOut : (i+1)*sampleOut]
		tensor.Gemm(c.outC, oh*ow, kvol, c.w.W.Data(), col, y)
		// Bias per output channel.
		for oc, bias := range c.b.W.Data() {
			tensor.AddConst(y[oc*oh*ow:(oc+1)*oh*ow], bias)
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
	c.dwTmp = reuse(c.dwTmp, c.outC, c.kvol())
	dwTmp := c.dwTmp
	for i := 0; i < n; i++ {
		g, err := c.sampleGrad(grad, i, ohow)
		if err != nil {
			return err
		}
		col, err := c.sampleCols(i)
		if err != nil {
			return err
		}
		// dW += g · colᵀ
		if err := tensor.MatMulTransB(g, col, dwTmp); err != nil {
			return err
		}
		tensor.AxpySlice(1, dwTmp.Data(), c.w.Grad.Data())
		rowSums(g.Data(), ohow, c.b.Grad.Data())
	}
	return nil
}

// rowSums adds to db[r] the sum of row r of the (len(db) × w) matrix g
// (db += row sums of g). Each row is one serial sum from +0 in ascending
// order, as a plain loop takes it; four rows run at a time, so their four
// add chains overlap instead of each waiting on its own add latency.
func rowSums(g []float32, w int, db []float32) {
	r := 0
	for ; r+4 <= len(db); r += 4 {
		g0 := g[r*w:][:w]
		g1 := g[(r+1)*w:][:w]
		g2 := g[(r+2)*w:][:w]
		g3 := g[(r+3)*w:][:w]
		var s0, s1, s2, s3 float32
		for j, v := range g0 {
			s0 += v
			s1 += g1[j]
			s2 += g2[j]
			s3 += g3[j]
		}
		db[r] += s0
		db[r+1] += s1
		db[r+2] += s2
		db[r+3] += s3
	}
	for ; r < len(db); r++ {
		var s float32
		for _, v := range g[r*w:][:w] {
			s += v
		}
		db[r] += s
	}
}

// inputGrad returns dX: per sample dcol = Wᵀ g, scattered back by col2im.
func (c *Conv2D) inputGrad(grad *tensor.Tensor) (*tensor.Tensor, error) {
	n, ohow, err := c.gradGeom(grad)
	if err != nil {
		return nil, err
	}
	h, w := c.inH, c.inW
	sampleIn := c.inC * h * w
	// col2im accumulates, so dx starts cleared; MatMulTransA overwrites
	// dcol for every sample.
	c.dx = reuse(c.dx, n, c.inC, h, w)
	dx := c.dx
	clear(dx.Data())
	c.dcol = reuse(c.dcol, c.kvol(), ohow)
	dcol := c.dcol
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

// sampleCols views sample i's im2col columns as the (kvol × oh·ow) matrix.
func (c *Conv2D) sampleCols(i int) (*tensor.Tensor, error) {
	kvol, ohow := c.cols.Dim(1), c.cols.Dim(2)
	size := kvol * ohow
	return tensor.FromSlice(c.cols.Data()[i*size:(i+1)*size], kvol, ohow)
}

// kvol is the im2col row count: one per (input channel, kernel tap).
func (c *Conv2D) kvol() int { return c.inC * c.geom.KernelH * c.geom.KernelW }

// MaxPool2D is a max pooling layer over NCHW batches.
type MaxPool2D struct {
	name   string
	geom   tensor.ConvParams
	argmax []int32 // flat input index chosen for each output element
	inN    int
	inC    int
	inH    int
	inW    int

	out, dx *tensor.Tensor // layer-owned (see Layer)
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

// Forward implements Layer: one maxPoolRow sweep per output row.
func (m *MaxPool2D) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	n, rest, err := batchOf(x)
	if err != nil {
		return nil, err
	}
	if len(rest) != 3 {
		return nil, fmt.Errorf("nn: maxpool %q input %v: %w", m.name, x.Shape(), ErrBadShape)
	}
	ch, h, w := rest[0], rest[1], rest[2]
	if err := m.geom.Validate(h, w); err != nil {
		return nil, err
	}
	if x.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("nn: maxpool %q input of %d elements overflows its int32 argmax: %w", m.name, x.Len(), ErrBadShape)
	}
	oh, ow := m.geom.OutSize(h, w)
	m.inN, m.inC, m.inH, m.inW = n, ch, h, w

	m.out = reuse(m.out, n, ch, oh, ow)
	out := m.out.Data()
	if len(m.argmax) != len(out) {
		m.argmax = make([]int32, len(out))
	}
	g := m.geom
	src := x.Data()
	outIdx := 0
	for p := 0; p < n*ch; p++ {
		for y := 0; y < oh; y++ {
			first := p*h*w + y*g.StrideH*w
			maxPoolRow(src, first, min(g.KernelH, h-y*g.StrideH), w, g.KernelW, g.StrideW,
				out[outIdx:outIdx+ow], m.argmax[outIdx:outIdx+ow])
			outIdx += ow
		}
	}
	return m.out, nil
}

// maxPoolRow folds the row of windows whose top-left elements are
// src[first + x·sw] into out and argmax, sweeping the whole row once per
// kernel tap. The top-left elements, always inside the image (there is no
// padding), seed the row, so every output has an argmax. Then each further
// tap (ky, kx) for ky < rows, ky outer and kx inner, folds across the row
// through maxStep, over the windows it reaches inside the image:
// x < ⌈(w−kx)/sw⌉. Every window folds its elements in the order of a
// per-window walk, so ties and NaNs keep the same element.
func maxPoolRow(src []float32, first, rows, w, kw, sw int, out []float32, argmax []int32) {
	for x := range out {
		i := first + x*sw
		out[x], argmax[x] = src[i], int32(i)
	}
	for ky := 0; ky < rows; ky++ {
		for kx := 0; kx < kw; kx++ {
			if ky == 0 && kx == 0 {
				continue // the seed
			}
			// ⌈(w−kx)/sw⌉ ≥ len(out) for every tap unless the kernel is
			// wider than the image, where only the last window overhangs.
			cols := len(out)
			if (cols-1)*sw+kx >= w {
				cols--
			}
			o, a := out[:cols], argmax[:cols]
			i := first + ky*w + kx
			for x := range o {
				o[x], a[x] = maxStep(o[x], a[x], src[i], int32(i))
				i += sw
			}
		}
	}
}

// maxStep folds candidate v at input index vi into a window's running
// maximum: v replaces it only when v > best, so ties and NaNs keep the
// earlier element. Both candidates are at hand before the compare, so the
// two selects compile to conditional moves on the float bits instead of a
// branch on the data.
func maxStep(best float32, bestIdx int32, v float32, vi int32) (float32, int32) {
	gt := v > best
	b, vb := math.Float32bits(best), math.Float32bits(v)
	if gt {
		b = vb
	}
	if gt {
		bestIdx = vi
	}
	return math.Float32frombits(b), bestIdx
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if m.argmax == nil {
		return nil, fmt.Errorf("nn: maxpool %q backward before forward", m.name)
	}
	if grad.Len() != len(m.argmax) {
		return nil, fmt.Errorf("nn: maxpool %q grad %v: %w", m.name, grad.Shape(), ErrBadShape)
	}
	m.dx = reuse(m.dx, m.inN, m.inC, m.inH, m.inW)
	dx := m.dx.Data()
	clear(dx)
	g := grad.Data()[:len(m.argmax)]
	for i, src := range m.argmax {
		dx[src] += g[i]
	}
	return m.dx, nil
}

// AvgPool2D performs global average pooling over each channel plane,
// reducing (N,C,H,W) to (N,C,1,1). Inception-style heads end with it.
type AvgPool2D struct {
	name string
	inN  int
	inC  int
	inH  int
	inW  int

	out, dx *tensor.Tensor // layer-owned (see Layer)
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
	a.out = reuse(a.out, n, ch, 1, 1)
	out := a.out
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
	a.dx = reuse(a.dx, a.inN, a.inC, a.inH, a.inW)
	dx := a.dx
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
