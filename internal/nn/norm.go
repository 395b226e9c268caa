package nn

import (
	"fmt"
	"math"

	"shmcaffe/internal/tensor"
)

// BatchNorm normalizes each channel over the batch and spatial dimensions,
// then applies a learned scale and shift — the normalization layer
// ResNet-50 and Inception-ResNet-v2 depend on. At evaluation time it uses
// running statistics accumulated with the given momentum, like Caffe's
// BatchNorm+Scale pair.
type BatchNorm struct {
	name     string
	channels int
	eps      float32
	momentum float32

	gamma, beta *Param
	// meanP/varP hold the running statistics as frozen parameters so they
	// travel inside the flat weight vector with the learnable weights.
	meanP, varP *Param

	// forward caches for backward
	xhat   *tensor.Tensor
	std    []float32 // per-channel 1/sqrt(var+eps)
	counts int       // elements per channel in the batch
	inN    int
	inH    int
	inW    int

	out, dx *tensor.Tensor // layer-owned (see Layer)
}

var _ Layer = (*BatchNorm)(nil)
var _ initializer = (*BatchNorm)(nil)

// NewBatchNorm returns a batch normalization layer over `channels` feature
// maps of NCHW input.
func NewBatchNorm(name string, channels int) *BatchNorm {
	meanP := newParam(name+".mean", channels)
	meanP.Frozen = true
	varP := newParam(name+".var", channels)
	varP.Frozen = true
	return &BatchNorm{
		name:     name,
		channels: channels,
		eps:      1e-5,
		momentum: 0.9,
		gamma:    newParam(name+".gamma", channels),
		beta:     newParam(name+".beta", channels),
		meanP:    meanP,
		varP:     varP,
	}
}

// Name implements Layer.
func (b *BatchNorm) Name() string { return b.name }

// OutShape implements Layer.
func (b *BatchNorm) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != b.channels {
		return nil, fmt.Errorf("nn: batchnorm %q wants (%d,H,W), got %v: %w",
			b.name, b.channels, in, ErrBadShape)
	}
	return in, nil
}

// Params implements Layer. The running statistics ride along as frozen
// parameters.
func (b *BatchNorm) Params() []*Param {
	return []*Param{b.gamma, b.beta, b.meanP, b.varP}
}

func (b *BatchNorm) initWeights(_ *tensor.RNG) {
	b.gamma.W.Fill(1)
	b.beta.W.Zero()
	b.meanP.W.Zero()
	b.varP.W.Fill(1)
}

// Forward implements Layer.
func (b *BatchNorm) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	n, rest, err := batchOf(x)
	if err != nil {
		return nil, err
	}
	if len(rest) != 3 || rest[0] != b.channels {
		return nil, fmt.Errorf("nn: batchnorm %q input %v: %w", b.name, x.Shape(), ErrBadShape)
	}
	h, w := rest[1], rest[2]
	b.inN, b.inH, b.inW = n, h, w
	plane := h * w
	count := n * plane

	b.out = reuse(b.out, n, b.channels, h, w)
	y := b.out
	if train {
		b.xhat = reuse(b.xhat, n, b.channels, h, w)
		if len(b.std) != b.channels {
			b.std = make([]float32, b.channels)
		}
		b.counts = count
	}
	for c := 0; c < b.channels; c++ {
		var mean, variance float32
		if train {
			var sum float64
			for i := 0; i < n; i++ {
				base := (i*b.channels + c) * plane
				for j := 0; j < plane; j++ {
					sum += float64(x.Data()[base+j])
				}
			}
			mean = float32(sum / float64(count))
			var sq float64
			for i := 0; i < n; i++ {
				base := (i*b.channels + c) * plane
				for j := 0; j < plane; j++ {
					d := float64(x.Data()[base+j] - mean)
					sq += d * d
				}
			}
			variance = float32(sq / float64(count))
			rm := b.meanP.W.Data()
			rv := b.varP.W.Data()
			rm[c] = b.momentum*rm[c] + (1-b.momentum)*mean
			rv[c] = b.momentum*rv[c] + (1-b.momentum)*variance
		} else {
			mean = b.meanP.W.Data()[c]
			variance = b.varP.W.Data()[c]
		}
		inv := float32(1 / math.Sqrt(float64(variance)+float64(b.eps)))
		g := b.gamma.W.Data()[c]
		bt := b.beta.W.Data()[c]
		for i := 0; i < n; i++ {
			base := (i*b.channels + c) * plane
			for j := 0; j < plane; j++ {
				xh := (x.Data()[base+j] - mean) * inv
				if train {
					b.xhat.Data()[base+j] = xh
				}
				y.Data()[base+j] = g*xh + bt
			}
		}
		if train {
			b.std[c] = inv
		}
	}
	return y, nil
}

// Backward implements Layer (training-mode statistics).
func (b *BatchNorm) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if b.xhat == nil {
		return nil, fmt.Errorf("nn: batchnorm %q backward before training forward", b.name)
	}
	if grad.Len() != b.xhat.Len() {
		return nil, fmt.Errorf("nn: batchnorm %q grad size: %w", b.name, ErrBadShape)
	}
	n, h, w := b.inN, b.inH, b.inW
	plane := h * w
	m := float32(b.counts)
	b.dx = reuse(b.dx, n, b.channels, h, w)
	dx := b.dx
	for c := 0; c < b.channels; c++ {
		// Accumulate dgamma, dbeta and the two correction sums.
		var dg, db, sumDxhat, sumDxhatXhat float64
		for i := 0; i < n; i++ {
			base := (i*b.channels + c) * plane
			for j := 0; j < plane; j++ {
				g := float64(grad.Data()[base+j])
				xh := float64(b.xhat.Data()[base+j])
				dg += g * xh
				db += g
			}
		}
		b.gamma.Grad.Data()[c] += float32(dg)
		b.beta.Grad.Data()[c] += float32(db)

		gamma := b.gamma.W.Data()[c]
		inv := b.std[c]
		// dxhat = gamma * dy; standard batchnorm backward:
		// dx = (1/m)·inv·(m·dxhat − Σdxhat − xhat·Σ(dxhat·xhat))
		for i := 0; i < n; i++ {
			base := (i*b.channels + c) * plane
			for j := 0; j < plane; j++ {
				dxh := float64(gamma * grad.Data()[base+j])
				sumDxhat += dxh
				sumDxhatXhat += dxh * float64(b.xhat.Data()[base+j])
			}
		}
		for i := 0; i < n; i++ {
			base := (i*b.channels + c) * plane
			for j := 0; j < plane; j++ {
				dxh := float64(gamma * grad.Data()[base+j])
				xh := float64(b.xhat.Data()[base+j])
				dx.Data()[base+j] = float32(float64(inv) / float64(m) *
					(float64(m)*dxh - sumDxhat - xh*sumDxhatXhat))
			}
		}
	}
	return dx, nil
}

// LRN is local response normalization across channels — the normalization
// GoogLeNet (Inception-v1) uses:
//
//	y = x / (k + α/size · Σ x²)^β
//
// summed over `size` adjacent channels.
type LRN struct {
	name  string
	size  int
	alpha float32
	beta  float32
	k     float32

	lastIn  *tensor.Tensor
	scale   *tensor.Tensor // (k + α/size·Σx²) per element
	inN     int
	inC     int
	inH     int
	inW     int
	out, dx *tensor.Tensor // layer-owned (see Layer)
}

var _ Layer = (*LRN)(nil)

// NewLRN returns an LRN layer with Caffe's defaults (size 5, α 1e-4, β 0.75).
func NewLRN(name string) *LRN {
	return &LRN{name: name, size: 5, alpha: 1e-4, beta: 0.75, k: 1}
}

// Name implements Layer.
func (l *LRN) Name() string { return l.name }

// OutShape implements Layer.
func (l *LRN) OutShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("nn: lrn %q wants (C,H,W), got %v: %w", l.name, in, ErrBadShape)
	}
	return in, nil
}

// Params implements Layer.
func (l *LRN) Params() []*Param { return nil }

// Forward implements Layer.
func (l *LRN) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	n, rest, err := batchOf(x)
	if err != nil {
		return nil, err
	}
	if len(rest) != 3 {
		return nil, fmt.Errorf("nn: lrn %q input %v: %w", l.name, x.Shape(), ErrBadShape)
	}
	c, h, w := rest[0], rest[1], rest[2]
	l.inN, l.inC, l.inH, l.inW = n, c, h, w
	plane := h * w
	half := l.size / 2

	l.lastIn = x
	l.scale = reuse(l.scale, n, c, h, w)
	l.out = reuse(l.out, n, c, h, w)
	y := l.out
	coef := l.alpha / float32(l.size)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * plane
			lo := ch - half
			if lo < 0 {
				lo = 0
			}
			hi := ch + half
			if hi >= c {
				hi = c - 1
			}
			for j := 0; j < plane; j++ {
				var sq float32
				for cc := lo; cc <= hi; cc++ {
					v := x.Data()[(i*c+cc)*plane+j]
					sq += v * v
				}
				s := l.k + coef*sq
				l.scale.Data()[base+j] = s
				y.Data()[base+j] = x.Data()[base+j] * float32(math.Pow(float64(s), -float64(l.beta)))
			}
		}
	}
	return y, nil
}

// Backward implements Layer.
func (l *LRN) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if l.lastIn == nil {
		return nil, fmt.Errorf("nn: lrn %q backward before forward", l.name)
	}
	if grad.Len() != l.lastIn.Len() {
		return nil, fmt.Errorf("nn: lrn %q grad size: %w", l.name, ErrBadShape)
	}
	n, c, h, w := l.inN, l.inC, l.inH, l.inW
	plane := h * w
	half := l.size / 2
	coef := l.alpha / float32(l.size)
	l.dx = reuse(l.dx, n, c, h, w)
	dx := l.dx
	// dy_q/dx_p = δ(p==q)·s_q^(−β) − 2β·coef·x_p·x_q·s_q^(−β−1) for p in
	// q's window; accumulate over all q whose window contains p.
	for i := 0; i < n; i++ {
		for p := 0; p < c; p++ {
			lo := p - half
			if lo < 0 {
				lo = 0
			}
			hi := p + half
			if hi >= c {
				hi = c - 1
			}
			for j := 0; j < plane; j++ {
				xp := l.lastIn.Data()[(i*c+p)*plane+j]
				var acc float64
				for q := lo; q <= hi; q++ {
					idxQ := (i*c+q)*plane + j
					s := float64(l.scale.Data()[idxQ])
					g := float64(grad.Data()[idxQ])
					xq := float64(l.lastIn.Data()[idxQ])
					term := -2 * float64(l.beta) * float64(coef) * float64(xp) * xq *
						math.Pow(s, -float64(l.beta)-1)
					if q == p {
						term += math.Pow(s, -float64(l.beta))
					}
					acc += g * term
				}
				dx.Data()[(i*c+p)*plane+j] = float32(acc)
			}
		}
	}
	return dx, nil
}
