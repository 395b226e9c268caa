package tensor

import (
	"fmt"

	"shmcaffe/internal/parallel"
)

// ConvParams describes a 2-D convolution or pooling geometry.
type ConvParams struct {
	KernelH, KernelW int
	StrideH, StrideW int
	PadH, PadW       int
}

// OutSize returns the output spatial size for an input of h×w.
func (p ConvParams) OutSize(h, w int) (oh, ow int) {
	oh = (h+2*p.PadH-p.KernelH)/p.StrideH + 1
	ow = (w+2*p.PadW-p.KernelW)/p.StrideW + 1
	return oh, ow
}

// Validate checks that the geometry is usable for an h×w input.
func (p ConvParams) Validate(h, w int) error {
	if p.KernelH <= 0 || p.KernelW <= 0 || p.StrideH <= 0 || p.StrideW <= 0 {
		return fmt.Errorf("tensor: invalid conv params %+v", p)
	}
	if p.PadH < 0 || p.PadW < 0 {
		return fmt.Errorf("tensor: negative padding %+v", p)
	}
	oh, ow := p.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		return fmt.Errorf("tensor: conv output %dx%d non-positive for input %dx%d params %+v", oh, ow, h, w, p)
	}
	return nil
}

// convParallelWork is the per-channel element count above which the
// im2col/col2im lowering fans out across the pool.
const convParallelWork = 1 << 15

// Im2Col expands one image (c×h×w, flat) into columns for GEMM-based
// convolution. col must have (c·kh·kw)×(oh·ow) elements and is overwritten.
// This mirrors the canonical Caffe lowering. Channels are independent (each
// owns a contiguous kh·kw·oh·ow block of col), so large lowerings run
// channel ranges in parallel; the result is position-for-position identical
// to the scalar walk.
func Im2Col(img []float32, c, h, w int, p ConvParams, col []float32) {
	oh, ow := p.OutSize(h, w)
	perChannel := p.KernelH * p.KernelW * oh * ow
	if c > 1 && perChannel*c >= convParallelWork {
		r := im2colRangerFree.Get()
		*r = im2colRanger{img: img, col: col, h: h, w: w, oh: oh, ow: ow, p: p}
		parallel.ForRanger(c, 1, r)
		*r = im2colRanger{}
		im2colRangerFree.Put(r)
		return
	}
	im2ColChannels(img, 0, c, h, w, oh, ow, p, col)
}

// im2ColChannels lowers channels [lo, hi) row by row. Each (channel,
// kernel tap, output row) row of col reads one input row: its in-image span
// is one copy at stride 1, or one loop with the bounds hoisted out of it at
// any other stride, and the padding margins on either side are cleared.
// Every element gets the value the element-wise Caffe walk gives it, so
// the result is bitwise that walk's (TestIm2ColMatchesReference).
func im2ColChannels(img []float32, lo, hi, h, w, oh, ow int, p ConvParams, col []float32) {
	colIdx := lo * p.KernelH * p.KernelW * oh * ow
	s := p.StrideW
	for ch := lo; ch < hi; ch++ {
		plane := img[ch*h*w : (ch+1)*h*w]
		for kh := 0; kh < p.KernelH; kh++ {
			for kw := 0; kw < p.KernelW; kw++ {
				xlo, xhi := rowSpan(ow, w, s, p.PadW, kw)
				off := kw - p.PadW
				for y := 0; y < oh; y++ {
					row := col[colIdx : colIdx+ow]
					colIdx += ow
					iy := y*p.StrideH - p.PadH + kh
					if iy < 0 || iy >= h || xlo == xhi {
						clear(row)
						continue
					}
					// The margins are zero to a few elements: stores in
					// place cost less than a clear call each.
					src := plane[iy*w : (iy+1)*w]
					for x := 0; x < xlo; x++ {
						row[x] = 0
					}
					if s == 1 {
						copy(row[xlo:xhi], src[xlo+off:xhi+off])
					} else {
						for x := xlo; x < xhi; x++ {
							row[x] = src[x*s+off]
						}
					}
					for x := xhi; x < ow; x++ {
						row[x] = 0
					}
				}
			}
		}
	}
}

// rowSpan returns the output columns [xlo, xhi) of a lowering row at
// kernel column kw whose input column x·stride + kw − pad lies inside
// [0, w). The columns outside the span read padding.
func rowSpan(ow, w, stride, pad, kw int) (xlo, xhi int) {
	off := kw - pad
	if off < 0 {
		xlo = (-off + stride - 1) / stride
	}
	if lim := w - off; lim > 0 {
		xhi = (lim-1)/stride + 1
	}
	xlo = min(xlo, ow)
	return xlo, min(max(xhi, xlo), ow)
}

// Col2Im scatters columns back into an image gradient (accumulating), the
// adjoint of Im2Col. img must have c·h·w elements and should be zeroed by
// the caller if accumulation from a clean slate is desired. Each channel
// scatters only into its own h·w block of img, so channel ranges are
// data-disjoint and the parallel path accumulates in the same per-element
// order as the scalar walk.
func Col2Im(col []float32, c, h, w int, p ConvParams, img []float32) {
	oh, ow := p.OutSize(h, w)
	perChannel := p.KernelH * p.KernelW * oh * ow
	if c > 1 && perChannel*c >= convParallelWork {
		r := col2imRangerFree.Get()
		*r = col2imRanger{col: col, img: img, h: h, w: w, oh: oh, ow: ow, p: p}
		parallel.ForRanger(c, 1, r)
		*r = col2imRanger{}
		col2imRangerFree.Put(r)
		return
	}
	col2ImChannels(col, 0, c, h, w, oh, ow, p, img)
}

// col2ImChannels scatters channels [lo, hi) back row by row, the adjoint
// of im2ColChannels: each row of col adds its in-image span into one input
// row (an element-wise add at stride 1, a hoisted-bounds loop otherwise)
// and drops its padding margins. For a fixed (channel, kh, kw) distinct
// output positions hit distinct image elements, so every image element
// folds its contributions in the same (kh, kw, y) order as the
// element-wise walk and the result is bitwise that walk's
// (TestCol2ImMatchesReference).
func col2ImChannels(col []float32, lo, hi, h, w, oh, ow int, p ConvParams, img []float32) {
	colIdx := lo * p.KernelH * p.KernelW * oh * ow
	s := p.StrideW
	for ch := lo; ch < hi; ch++ {
		plane := img[ch*h*w : (ch+1)*h*w]
		for kh := 0; kh < p.KernelH; kh++ {
			for kw := 0; kw < p.KernelW; kw++ {
				xlo, xhi := rowSpan(ow, w, s, p.PadW, kw)
				off := kw - p.PadW
				for y := 0; y < oh; y++ {
					row := col[colIdx : colIdx+ow]
					colIdx += ow
					iy := y*p.StrideH - p.PadH + kh
					if iy < 0 || iy >= h || xlo == xhi {
						continue
					}
					dst := plane[iy*w : (iy+1)*w]
					if s == 1 {
						span := row[xlo:xhi]
						d := dst[xlo+off:][:len(span)]
						for i, v := range span {
							d[i] += v
						}
					} else {
						for x := xlo; x < xhi; x++ {
							dst[x*s+off] += row[x]
						}
					}
				}
			}
		}
	}
}
