package tensor

import (
	"fmt"
	"testing"
)

// im2ColRef is the element-wise Caffe lowering walk over channels [lo, hi):
// one bounds test per column element. It is the reference the row-copy
// im2ColChannels must reproduce bit for bit.
func im2ColRef(img []float32, lo, hi, h, w, oh, ow int, p ConvParams, col []float32) {
	colIdx := lo * p.KernelH * p.KernelW * oh * ow
	for ch := lo; ch < hi; ch++ {
		base := ch * h * w
		for kh := 0; kh < p.KernelH; kh++ {
			for kw := 0; kw < p.KernelW; kw++ {
				for y := 0; y < oh; y++ {
					iy := y*p.StrideH - p.PadH + kh
					for x := 0; x < ow; x++ {
						ix := x*p.StrideW - p.PadW + kw
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							col[colIdx] = img[base+iy*w+ix]
						} else {
							col[colIdx] = 0
						}
						colIdx++
					}
				}
			}
		}
	}
}

// col2ImRef is the element-wise scatter walk over channels [lo, hi), the
// reference for col2ImChannels.
func col2ImRef(col []float32, lo, hi, h, w, oh, ow int, p ConvParams, img []float32) {
	colIdx := lo * p.KernelH * p.KernelW * oh * ow
	for ch := lo; ch < hi; ch++ {
		base := ch * h * w
		for kh := 0; kh < p.KernelH; kh++ {
			for kw := 0; kw < p.KernelW; kw++ {
				for y := 0; y < oh; y++ {
					iy := y*p.StrideH - p.PadH + kh
					for x := 0; x < ow; x++ {
						ix := x*p.StrideW - p.PadW + kw
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							img[base+iy*w+ix] += col[colIdx]
						}
						colIdx++
					}
				}
			}
		}
	}
}

// convGeom is one lowering geometry: a c×h×w image under p.
type convGeom struct {
	c, h, w int
	p       ConvParams
}

// loweringSweep lists every geometry with c ∈ {1, 3}, h and w in 1–9,
// kernel height and width in 1–5, stride height and width in 1–3 and a
// square pad in 0–3 that Validate accepts — including the ones where the
// kernel overhangs the padded image by less than a stride.
func loweringSweep() []convGeom {
	var out []convGeom
	for _, c := range []int{1, 3} {
		for h := 1; h <= 9; h++ {
			for w := 1; w <= 9; w++ {
				for kh := 1; kh <= 5; kh++ {
					for kw := 1; kw <= 5; kw++ {
						for sh := 1; sh <= 3; sh++ {
							for sw := 1; sw <= 3; sw++ {
								for pad := 0; pad <= 3; pad++ {
									p := ConvParams{KernelH: kh, KernelW: kw, StrideH: sh, StrideW: sw, PadH: pad, PadW: pad}
									if p.Validate(h, w) == nil {
										out = append(out, convGeom{c, h, w, p})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// TestIm2ColMatchesReference: across the whole sweep the row-copy lowering
// writes exactly the element-wise walk's columns, bit for bit, over a
// destination that starts out holding garbage.
func TestIm2ColMatchesReference(t *testing.T) {
	sweep := loweringSweep()
	if len(sweep) < 100000 {
		t.Fatalf("sweep has %d geometries", len(sweep))
	}
	for _, s := range sweep {
		oh, ow := s.p.OutSize(s.h, s.w)
		img := make([]float32, s.c*s.h*s.w)
		fillPattern(img, s.h+s.w)
		n := s.c * s.p.KernelH * s.p.KernelW * oh * ow
		ref, got := make([]float32, n), make([]float32, n)
		fillPattern(got, 5)
		im2ColRef(img, 0, s.c, s.h, s.w, oh, ow, s.p, ref)
		Im2Col(img, s.c, s.h, s.w, s.p, got)
		assertBitwise(t, fmt.Sprintf("im2col c%d %dx%d %+v", s.c, s.h, s.w, s.p), got, ref)
	}
}

// TestCol2ImMatchesReference: across the whole sweep the row scatter
// accumulates into an already-populated image exactly as the element-wise
// walk does, so every element's sum rounds identically.
func TestCol2ImMatchesReference(t *testing.T) {
	for _, s := range loweringSweep() {
		oh, ow := s.p.OutSize(s.h, s.w)
		col := make([]float32, s.c*s.p.KernelH*s.p.KernelW*oh*ow)
		fillPattern(col, s.h*s.w)
		ref, got := make([]float32, s.c*s.h*s.w), make([]float32, s.c*s.h*s.w)
		fillPattern(ref, 3)
		copy(got, ref)
		col2ImRef(col, 0, s.c, s.h, s.w, oh, ow, s.p, ref)
		Col2Im(col, s.c, s.h, s.w, s.p, got)
		assertBitwise(t, fmt.Sprintf("col2im c%d %dx%d %+v", s.c, s.h, s.w, s.p), got, ref)
	}
}

// TestLoweringParallelMatchesReference drives Im2Col and Col2Im past
// convParallelWork, where channel ranges fan out across the pool, and
// checks both against the element-wise walks.
func TestLoweringParallelMatchesReference(t *testing.T) {
	for _, s := range []convGeom{
		{64, 16, 16, ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
		{64, 17, 13, ConvParams{KernelH: 5, KernelW: 3, StrideH: 2, StrideW: 3, PadH: 2, PadW: 2}},
		{45, 32, 9, ConvParams{KernelH: 1, KernelW: 4, StrideH: 1, StrideW: 2, PadH: 0, PadW: 3}},
	} {
		oh, ow := s.p.OutSize(s.h, s.w)
		n := s.c * s.p.KernelH * s.p.KernelW * oh * ow
		if n < convParallelWork {
			t.Fatalf("%+v: %d column elements stay serial", s, n)
		}
		tag := fmt.Sprintf("c%d %dx%d %+v", s.c, s.h, s.w, s.p)
		img := make([]float32, s.c*s.h*s.w)
		fillPattern(img, 2)
		ref, got := make([]float32, n), make([]float32, n)
		im2ColRef(img, 0, s.c, s.h, s.w, oh, ow, s.p, ref)
		Im2Col(img, s.c, s.h, s.w, s.p, got)
		assertBitwise(t, "im2col "+tag, got, ref)

		dref, dgot := make([]float32, len(img)), make([]float32, len(img))
		fillPattern(dref, 6)
		copy(dgot, dref)
		col2ImRef(ref, 0, s.c, s.h, s.w, oh, ow, s.p, dref)
		Col2Im(ref, s.c, s.h, s.w, s.p, dgot)
		assertBitwise(t, "col2im "+tag, dgot, dref)
	}
}
