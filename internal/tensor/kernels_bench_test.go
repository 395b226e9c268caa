package tensor

import (
	"fmt"
	"testing"
)

// Kernel benchmarks: the gemm sizes the acceptance gate tracks (the hot
// shapes of the zoo models are in this range), the streaming SEASGD
// kernels, and the conv lowering. Each pins the scalar reference beside
// the kernels that replace it, so a speedup is read off one run:
//
//	go test -run='^$' -bench=. ./internal/tensor

// wideElems is the parameter count of the wide benchmark model.
const wideElems = 1_320_000

func benchGemm(b *testing.B, m, n, k int, kernel func(m, n, k int, a, bb, c []float32)) {
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	c := make([]float32, m*n)
	fillPattern(a, 1)
	fillPattern(bb, 2)
	b.SetBytes(int64(2 * m * n * k * 4)) // 2 flops per element-pair, float32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(m, n, k, a, bb, c)
	}
}

// gemmWideShapes are the a×b rows past the model shapes: a 4-row tile
// and more over a 4 MiB B (the k-block edge decides these), and the
// batch-1 wide gemvs, which stay on the row kernel (m < 4).
var gemmWideShapes = []struct{ m, n, k int }{
	{4, 1024, 1024},
	{8, 1024, 1024},
	{64, 1024, 1024},
	{1, 1024, 1024},
	{1, 1024, 256},
}

// BenchmarkGemm times a×b: the scalar reference against the forced row
// fan-out on cubes, then the dispatched kernel (Gemm's choice of path) at
// the model shapes m×n×k and gemmWideShapes.
func BenchmarkGemm(b *testing.B) {
	for _, size := range []int{64, 128, 256, 384} {
		b.Run(fmt.Sprintf("scalar/%d", size), func(b *testing.B) {
			benchGemm(b, size, size, size, gemmScalar)
		})
		b.Run(fmt.Sprintf("parallel/%d", size), func(b *testing.B) {
			benchGemm(b, size, size, size, gemmParallel)
		})
	}
	for _, s := range gemmModelShapes {
		b.Run(fmt.Sprintf("dispatched/%dx%dx%d", s.m, s.n, s.k), func(b *testing.B) { benchGemm(b, s.m, s.n, s.k, Gemm) })
	}
	for _, s := range gemmWideShapes {
		b.Run(fmt.Sprintf("dispatched/%dx%dx%d", s.m, s.n, s.k), func(b *testing.B) { benchGemm(b, s.m, s.n, s.k, Gemm) })
	}
}

// BenchmarkGemmTransA times aᵀ×b: the scalar reference against the forced
// row fan-out at 256³, then the dispatched kernel at the model shapes —
// the conv2 dX overwriting, the fc1 dW accumulating, as the layers call
// them — and at 256×1024×1, the batch-1 wide dW (k < 4: the row kernel).
func BenchmarkGemmTransA(b *testing.B) {
	scalar := func(m, n, k int, a, bb, c []float32) { gemmTransAScalar(m, n, k, a, bb, c, false) }
	par := func(m, n, k int, a, bb, c []float32) { gemmTransAParallel(m, n, k, a, bb, c, false) }
	b.Run("scalar/256", func(b *testing.B) { benchGemm(b, 256, 256, 256, scalar) })
	b.Run("parallel/256", func(b *testing.B) { benchGemm(b, 256, 256, 256, par) })
	shapes := append(transAModelShapes[:len(transAModelShapes):len(transAModelShapes)], struct {
		m, n, k int
		acc     bool
	}{256, 1024, 1, true})
	for _, s := range shapes {
		run := func(m, n, k int, a, bb, c []float32) { gemmAB(m, n, k, a, 1, m, bb, c, s.acc, allFinite(bb)) }
		b.Run(fmt.Sprintf("dispatched/%dx%dx%d", s.m, s.n, s.k), func(b *testing.B) { benchGemm(b, s.m, s.n, s.k, run) })
	}
}

// BenchmarkGemmTransB times a×bᵀ: the serial-dot reference and the tiled
// row partition at 256³, then the reference against the dispatched kernel
// (MatMulTransB's choice of arm) at the model shapes m×n×k.
func BenchmarkGemmTransB(b *testing.B) {
	b.Run("scalar/256", func(b *testing.B) { benchGemm(b, 256, 256, 256, gemmTransBScalar) })
	b.Run("parallel/256", func(b *testing.B) { benchGemm(b, 256, 256, 256, gemmTransBParallel) })
	for _, s := range transBModelShapes {
		shape := fmt.Sprintf("%dx%dx%d", s.m, s.n, s.k)
		b.Run("scalar/"+shape, func(b *testing.B) { benchGemm(b, s.m, s.n, s.k, gemmTransBScalar) })
		b.Run("dispatched/"+shape, func(b *testing.B) { benchGemm(b, s.m, s.n, s.k, gemmTransB) })
	}
}

// BenchmarkFusedMomentumStep sweeps one wide-model-sized parameter vector
// (1.32M elements: w, g and v read, all three written) through the scalar
// three-pass reference, the portable body and the dispatched kernel.
func BenchmarkFusedMomentumStep(b *testing.B) {
	const n = wideElems
	w := make([]float32, n)
	g := make([]float32, n)
	v := make([]float32, n)
	fillPattern(w, 1)
	fillPattern(v, 2)
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"scalar", func() { fusedMomentumStepScalar(0.01, 0.9, 1e-4, 5, false, w, g, v) }},
		{"portable", func() { fusedMomentumStepUnrolled(0.01, 0.9, 1e-4, 5, false, w, g, v) }},
		{"dispatched", func() { FusedMomentumStep(0.01, 0.9, 1e-4, 5, false, w, g, v) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(6 * 4 * n) // three streams read, three written
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.run()
			}
		})
	}
}

// BenchmarkAxpySlice times the Eq. 7 accumulate loop (y += x) through the
// scalar reference and the dispatched kernel. 4 Ki elements sit in L1,
// where the vector width shows; 1 Mi (4 MiB) falls out of L2 and is
// bandwidth-bound.
func BenchmarkAxpySlice(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		x := make([]float32, n)
		y := make([]float32, n)
		fillPattern(x, 8)
		fillPattern(y, 9)
		for _, k := range []struct {
			name string
			run  func()
		}{
			{"scalar", func() { axpySliceScalar(1, x, y) }},
			{"dispatched", func() { AxpySlice(1, x, y) }},
		} {
			b.Run(fmt.Sprintf("%s/%d", k.name, n), func(b *testing.B) {
				b.SetBytes(int64(3 * 4 * n)) // x and y read, y written
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k.run()
				}
			})
		}
	}
}

// BenchmarkFusedElasticStep times the worker half of the elastic exchange
// (T2: delta = α·(local − global), local −= delta) through the scalar
// reference, the portable body and the dispatched kernel on three arrays,
// and through the dispatched kernel in place (inplace: delta == global, the
// exchange's form), which streams two. global == local keeps the iterated
// update stationary: otherwise local contracts onto global, the differences
// fall into subnormals and the benchmark times FP assists instead of the
// kernels. In place, α = 2/3 on (x, −2x) is the kernel's period-2 orbit
// (each call negates both arrays) for the same reason.
func BenchmarkFusedElasticStep(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		local := make([]float32, n)
		global := make([]float32, n)
		delta := make([]float32, n)
		fillPattern(local, 6)
		copy(global, local)
		inLocal := cloneSlice(local)
		inGlobal := make([]float32, n)
		for i, x := range inLocal {
			inGlobal[i] = -2 * x
		}
		for _, k := range []struct {
			name string
			run  func()
		}{
			{"scalar", func() { fusedElasticStepScalar(0.3, delta, local, global) }},
			{"portable", func() { fusedElasticStepUnrolled(0.3, delta, local, global) }},
			{"dispatched", func() { FusedElasticStep(0.3, delta, local, global) }},
			{"inplace", func() { FusedElasticStep(2.0/3, inGlobal, inLocal, inGlobal) }},
		} {
			b.Run(fmt.Sprintf("%s/%d", k.name, n), func(b *testing.B) {
				b.SetBytes(int64(4 * 4 * n)) // local and global read, local and delta written
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k.run()
				}
			})
		}
	}
}

// BenchmarkEncodeFloat32 and BenchmarkDecodeFloat32 move one wide-model
// weight vector (1.32M elements, 5.3 MB) between float32 and wire bytes.
func BenchmarkEncodeFloat32(b *testing.B) {
	vals := make([]float32, wideElems)
	fillPattern(vals, 5)
	buf := make([]byte, 4*wideElems)
	b.SetBytes(4 * wideElems)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeFloat32(vals, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeFloat32(b *testing.B) {
	vals := make([]float32, wideElems)
	fillPattern(vals, 6)
	buf := Float32Bytes(vals)
	b.SetBytes(4 * wideElems)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeFloat32(buf, vals); err != nil {
			b.Fatal(err)
		}
	}
}

// conv3x3 is SmallCNN's convolution geometry: 3×3, stride 1, pad 1.
var conv3x3 = ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}

// loweringBenchShapes are SmallCNN's two convolutions at one sample (conv1:
// 3×16×16, conv2: 8×8×8, both 3×3 stride 1 pad 1), a 64×32×32 layer large
// enough to take the parallel path, and MiniInception's pool-branch 1×1
// pad-1 convolution on 8×8×8 (ow = w+2, so each row is its own run).
var loweringBenchShapes = []struct {
	name string
	convGeom
}{
	{"conv1", convGeom{3, 16, 16, conv3x3}},
	{"conv2", convGeom{8, 8, 8, conv3x3}},
	{"c64_32x32", convGeom{64, 32, 32, conv3x3}},
	{"inc_1x1_pad1", convGeom{8, 8, 8, ConvParams{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}}},
}

// BenchmarkIm2Col times the dispatched lowering against the element-wise
// reference walk (ref, serial) at each loweringBenchShapes geometry.
func BenchmarkIm2Col(b *testing.B) {
	benchLowering(b, func(img, col []float32, s convGeom, oh, ow int) (ref, rows func()) {
		return func() { im2ColRef(img, 0, s.c, s.h, s.w, oh, ow, s.p, col) },
			func() { Im2Col(img, s.c, s.h, s.w, s.p, col) }
	})
}

// BenchmarkCol2Im is BenchmarkIm2Col for the scatter back.
func BenchmarkCol2Im(b *testing.B) {
	benchLowering(b, func(img, col []float32, s convGeom, oh, ow int) (ref, rows func()) {
		return func() { col2ImRef(col, 0, s.c, s.h, s.w, oh, ow, s.p, img) },
			func() { Col2Im(col, s.c, s.h, s.w, s.p, img) }
	})
}

// benchLowering times, at each loweringBenchShapes geometry, the two
// closures kernels builds over patterned image and column buffers: ref,
// the element-wise walk, and rows, the dispatched lowering.
func benchLowering(b *testing.B, kernels func(img, col []float32, s convGeom, oh, ow int) (ref, rows func())) {
	for _, shape := range loweringBenchShapes {
		s, p := shape.convGeom, shape.p
		oh, ow := p.OutSize(s.h, s.w)
		img := make([]float32, s.c*s.h*s.w)
		col := make([]float32, s.c*p.KernelH*p.KernelW*oh*ow)
		fillPattern(img, 3)
		fillPattern(col, 4)
		ref, rows := kernels(img, col, s, oh, ow)
		for _, k := range []struct {
			name string
			run  func()
		}{{"ref", ref}, {"rows", rows}} {
			b.Run(k.name+"/"+shape.name, func(b *testing.B) {
				b.SetBytes(int64(len(col) * 4))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k.run()
				}
			})
		}
	}
}
