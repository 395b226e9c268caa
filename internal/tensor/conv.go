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

// im2ColChannels lowers channels [lo, hi) one kernel tap at a time. A
// tap's rows whose input row lies outside the image are cleared as one
// block above and one below. Its in-image rows go in runs: at stride 1
// with ow == w they are contiguous in both col and the plane, so one run
// is the whole span from (ylo, xlo) to (yhi−1, xhi) and one copy moves it;
// any other geometry runs one row at a time, its in-image span one copy at
// stride 1 or one loop with the bounds hoisted out of it otherwise. Then
// the padding margins of the run's rows are cleared, which also undoes
// what a whole-tap copy carried over from the neighbouring rows' edges.
// Every element gets the value the element-wise Caffe walk gives it, so
// the result is bitwise that walk's (TestIm2ColMatchesReference).
func im2ColChannels(img []float32, lo, hi, h, w, oh, ow int, p ConvParams, col []float32) {
	tapLen := oh * ow
	colIdx := lo * p.KernelH * p.KernelW * tapLen
	s := p.StrideW
	wholeTap := p.StrideH == 1 && s == 1 && ow == w
	for ch := lo; ch < hi; ch++ {
		plane := img[ch*h*w : (ch+1)*h*w]
		for kh := 0; kh < p.KernelH; kh++ {
			ylo, yhi := rowSpan(oh, h, p.StrideH, p.PadH, kh)
			for kw := 0; kw < p.KernelW; kw++ {
				tap := col[colIdx : colIdx+tapLen]
				colIdx += tapLen
				xlo, xhi := rowSpan(ow, w, s, p.PadW, kw)
				if xlo == xhi {
					clear(tap)
					continue
				}
				clear(tap[:ylo*ow])
				clear(tap[yhi*ow:])
				run := 1
				if wholeTap {
					run = yhi - ylo
				}
				off := kw - p.PadW
				for y := ylo; y < yhi; y += run {
					// base+x·s is the input element under output column x.
					base := (y*p.StrideH-p.PadH+kh)*w + off
					if s == 1 {
						copy(tap[y*ow+xlo:(y+run-1)*ow+xhi], plane[base+xlo:])
					} else {
						row := tap[y*ow : (y+1)*ow]
						for x := xlo; x < xhi; x++ {
							row[x] = plane[base+x*s]
						}
					}
					if xlo == 0 && xhi == ow {
						continue // no margins
					}
					// Clear the margins: the gap before each row's span,
					// from the previous span's end (or the run's first
					// element), and the gap after the last. They are zero to
					// a few elements: stores in place cost less than a clear
					// call each.
					from, end := y*ow, (y+run)*ow
					for next := from + xlo; next < end; next += ow {
						for i := from; i < next; i++ {
							tap[i] = 0
						}
						from = next + xhi - xlo
					}
					for i := from; i < end; i++ {
						tap[i] = 0
					}
				}
			}
		}
	}
}

// rowSpan returns, along one axis, the output positions [xlo, xhi) at
// kernel offset kw whose input position x·stride + kw − pad lies inside
// [0, w): the columns of a lowering row, or the rows of a kernel tap. The
// positions outside the span read padding. At stride 1 the span is the
// unit-stride one as it stands, without the two integer divisions.
func rowSpan(ow, w, stride, pad, kw int) (xlo, xhi int) {
	off := kw - pad
	xlo, xhi = max(-off, 0), max(w-off, 0)
	if stride > 1 {
		xlo = (xlo + stride - 1) / stride
		if xhi > 0 {
			xhi = (xhi-1)/stride + 1
		}
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
