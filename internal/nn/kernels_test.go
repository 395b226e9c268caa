package nn

import (
	"math"
	"testing"

	"shmcaffe/internal/tensor"
)

// reluRefForward and reluRefBackward are the branchy ReLU the masked
// kernel replaced: y = v where v > 0 and +0 elsewhere, remembering the
// comparison in mask, then dx = g where mask holds and +0 elsewhere.
func reluRefForward(x, y []float32, mask []bool) {
	for i, v := range x {
		if v > 0 {
			mask[i] = true
			y[i] = v
		} else {
			mask[i] = false
			y[i] = 0
		}
	}
}

func reluRefBackward(g, dx []float32, mask []bool) {
	for i, v := range g {
		if mask[i] {
			dx[i] = v
		} else {
			dx[i] = 0
		}
	}
}

// maxPoolRef is the branchy max-pool walk the select kernel replaced: the
// first in-range window element, then any later one with v > best. out and
// argmax hold one element per window.
func maxPoolRef(x []float32, planes, h, w int, p tensor.ConvParams, out []float32, argmax []int) {
	oh, ow := p.OutSize(h, w)
	o := 0
	for pl := 0; pl < planes; pl++ {
		base := pl * h * w
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				bestVal, bestIdx := float32(0), -1
				for ky := 0; ky < p.KernelH; ky++ {
					iy := y*p.StrideH + ky
					if iy >= h {
						continue
					}
					for kx := 0; kx < p.KernelW; kx++ {
						ix := xx*p.StrideW + kx
						if ix >= w {
							continue
						}
						if v := x[base+iy*w+ix]; bestIdx < 0 || v > bestVal {
							bestVal, bestIdx = v, base+iy*w+ix
						}
					}
				}
				out[o], argmax[o] = bestVal, bestIdx
				o++
			}
		}
	}
}

// edgeValues are the float32s where a masked or selected kernel could part
// from a comparison: NaNs of both signs (and with payloads), ±0, ±Inf, the
// extreme subnormals and normals, and ordinary values of both signs.
var edgeValues = []float32{
	float32(math.NaN()),
	math.Float32frombits(0xffc00000), // -NaN
	math.Float32frombits(0x7f800001), // +NaN, smallest payload
	math.Float32frombits(0xffffffff), // -NaN, largest payload
	0,
	float32(math.Copysign(0, -1)),
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	math.Float32frombits(1),          // least positive subnormal
	math.Float32frombits(0x80000001), // least negative subnormal
	math.Float32frombits(0x007fffff), // largest subnormal
	math.Float32frombits(0x807fffff),
	math.Float32frombits(0x00800000), // least normal
	math.MaxFloat32,
	-math.MaxFloat32,
	1, -1, 0.5, -2.5,
}

// edgeTensor lays out every ordered pair and triple of edgeValues (so each
// value meets each other one, and itself, in every position of a pooling
// window), followed by the values repeated in runs to make ties.
func edgeTensor() []float32 {
	var x []float32
	for _, a := range edgeValues {
		for _, b := range edgeValues {
			x = append(x, a, b)
			for _, c := range edgeValues {
				x = append(x, a, b, c)
			}
		}
	}
	for _, a := range edgeValues {
		x = append(x, a, a, a, a)
	}
	return x
}

func assertBitsEqual(t *testing.T, tag string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d]: %#08x, want %#08x", tag, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestReLUEdgeValuesMatchBranch: the masked forward and backward are bit
// for bit the branchy loop on NaNs, signed zeros, infinities and
// subnormals, in the input and in the gradient.
func TestReLUEdgeValuesMatchBranch(t *testing.T) {
	x := edgeTensor()
	g := make([]float32, len(x))
	for i := range g {
		g[i] = edgeValues[(i*7+3)%len(edgeValues)]
	}
	wantY, wantDx, mask := make([]float32, len(x)), make([]float32, len(x)), make([]bool, len(x))
	reluRefForward(x, wantY, mask)
	reluRefBackward(g, wantDx, mask)
	r := NewReLU("relu")
	y, err := r.Forward(tensor.MustFromSlice(x, 1, len(x)), true)
	if err != nil {
		t.Fatal(err)
	}
	assertBitsEqual(t, "y", y.Data(), wantY)
	dx, err := r.Backward(tensor.MustFromSlice(g, 1, len(g)))
	if err != nil {
		t.Fatal(err)
	}
	assertBitsEqual(t, "dx", dx.Data(), wantDx)
}

// TestMaxPoolEdgeValuesMatchBranch: the select kernel picks the branchy
// walk's value and argmax on every window — ties keep the first element, a
// NaN keeps its place only when it comes first, +0 and -0 do not displace
// each other — and routes the gradient to the same inputs, over windows
// that tile, overlap and overhang the image.
func TestMaxPoolEdgeValuesMatchBranch(t *testing.T) {
	x := edgeTensor()
	for _, tc := range []struct{ h, w, window, stride int }{
		{1, 2, 2, 2},
		{2, 3, 3, 2},
		{2, 2, 2, 2},
		{3, 3, 2, 1},
		{3, 5, 3, 2},
		{4, 4, 2, 3},
	} {
		plane := tc.h * tc.w
		planes := len(x) / plane
		in := x[:planes*plane]
		m := NewMaxPool2D("pool", tc.window, tc.stride)
		oh, ow := m.geom.OutSize(tc.h, tc.w)
		wantOut, wantArg := make([]float32, planes*oh*ow), make([]int, planes*oh*ow)
		maxPoolRef(in, planes, tc.h, tc.w, m.geom, wantOut, wantArg)
		y, err := m.Forward(tensor.MustFromSlice(in, planes, 1, tc.h, tc.w), true)
		if err != nil {
			t.Fatal(err)
		}
		assertBitsEqual(t, "out", y.Data(), wantOut)
		for i, a := range m.argmax {
			if int(a) != wantArg[i] {
				t.Fatalf("%+v: argmax[%d] = %d, want %d", tc, i, a, wantArg[i])
			}
		}
		g := make([]float32, len(wantOut))
		for i := range g {
			g[i] = edgeValues[(i*5+1)%len(edgeValues)]
		}
		wantDx := make([]float32, len(in))
		for i, src := range wantArg {
			wantDx[src] += g[i]
		}
		dx, err := m.Backward(tensor.MustFromSlice(g, len(g)))
		if err != nil {
			t.Fatal(err)
		}
		assertBitsEqual(t, "dx", dx.Data(), wantDx)
	}
}

// TestMaxPoolGeometrySweepMatchesBranch: over every image of 1–7 × 1–7, window
// 1–4 and stride 1–3 that Validate accepts — windows that tile, overlap,
// skip elements, and kernels taller or wider than the image, where windows
// overhang the edge — the forward picks the branchy walk's value and argmax.
func TestMaxPoolGeometrySweepMatchesBranch(t *testing.T) {
	geometries := 0
	for h := 1; h <= 7; h++ {
		for w := 1; w <= 7; w++ {
			for window := 1; window <= 4; window++ {
				for stride := 1; stride <= 3; stride++ {
					m := NewMaxPool2D("pool", window, stride)
					if m.geom.Validate(h, w) != nil {
						continue
					}
					geometries++
					const planes = 3
					x := make([]float32, planes*h*w)
					for i := range x {
						x[i] = edgeValues[(i*11+h*w+window)%len(edgeValues)]
					}
					oh, ow := m.geom.OutSize(h, w)
					wantOut, wantArg := make([]float32, planes*oh*ow), make([]int, planes*oh*ow)
					maxPoolRef(x, planes, h, w, m.geom, wantOut, wantArg)
					y, err := m.Forward(tensor.MustFromSlice(x, 1, planes, h, w), true)
					if err != nil {
						t.Fatal(err)
					}
					assertBitsEqual(t, "out", y.Data(), wantOut)
					for i, a := range m.argmax {
						if int(a) != wantArg[i] {
							t.Fatalf("%dx%d window %d stride %d: argmax[%d] = %d, want %d", h, w, window, stride, i, a, wantArg[i])
						}
					}
				}
			}
		}
	}
	if geometries < 468 {
		t.Fatalf("sweep covered %d geometries", geometries)
	}
}

// reluBenchInput is SmallCNN's conv1 activation at batch 16 (16×8×16×16),
// normal with random signs: the input a `v > 0` branch mispredicts on.
func reluBenchInput() (x, g *tensor.Tensor) {
	rng := tensor.NewRNG(5)
	x, g = tensor.New(16, 8, 16, 16), tensor.New(16, 8, 16, 16)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(g, 0, 1)
	return x, g
}

// BenchmarkReLU times the masked ReLU against the branchy reference on
// random-sign activations, forward and backward.
func BenchmarkReLU(b *testing.B) {
	x, g := reluBenchInput()
	y, dx, mask := make([]float32, x.Len()), make([]float32, x.Len()), make([]bool, x.Len())
	r := NewReLU("relu")
	for _, k := range []struct {
		name string
		run  func() error
	}{
		{"ref/forward", func() error { reluRefForward(x.Data(), y, mask); return nil }},
		{"ref/backward", func() error { reluRefBackward(g.Data(), dx, mask); return nil }},
		{"masked/forward", func() error { _, err := r.Forward(x, true); return err }},
		{"masked/backward", func() error { _, err := r.Backward(g); return err }},
	} {
		if err := k.run(); err != nil { // leaves the mask and output the backward reads
			b.Fatal(err)
		}
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(4 * x.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := k.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaxPool2D times the max-pool forward sweep against the branchy
// reference at SmallCNN's pool1 (16×8×16×16, 2×2 stride 2) and pool2
// (16×16×8×8, 2×2 stride 2), and at MiniInception's pool branch (batch 16
// of inc1's 8×8×8 input, 3×3 stride 1: overlapping windows, overhanging
// the edge).
func BenchmarkMaxPool2D(b *testing.B) {
	for _, s := range []struct {
		name                    string
		n, c, h, window, stride int
	}{
		{"pool1", 16, 8, 16, 2, 2},
		{"pool2", 16, 16, 8, 2, 2},
		{"inc_pool", 16, 8, 8, 3, 1},
	} {
		x := tensor.New(s.n, s.c, s.h, s.h)
		tensor.NewRNG(5).FillNormal(x, 0, 1)
		m := NewMaxPool2D("pool", s.window, s.stride)
		oh, ow := m.geom.OutSize(s.h, s.h)
		out, argmax := make([]float32, s.n*s.c*oh*ow), make([]int, s.n*s.c*oh*ow)
		b.Run("ref/"+s.name, func(b *testing.B) {
			b.SetBytes(int64(4 * x.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				maxPoolRef(x.Data(), s.n*s.c, s.h, s.h, m.geom, out, argmax)
			}
		})
		b.Run("select/"+s.name, func(b *testing.B) {
			b.SetBytes(int64(4 * x.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Forward(x, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
