package tensor

import (
	"fmt"
	"testing"
)

// Kernel benchmarks: the gemm sizes the acceptance gate tracks (the hot
// shapes of the zoo models are in this range), plus the conv lowering.
// cmd/benchtables -kernels runs the same bodies through testing.Benchmark
// to emit BENCH_kernels.json.

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

func BenchmarkGemm(b *testing.B) {
	for _, size := range []int{64, 128, 256, 384} {
		b.Run(fmt.Sprintf("scalar/%d", size), func(b *testing.B) {
			benchGemm(b, size, size, size, gemmScalar)
		})
		b.Run(fmt.Sprintf("parallel/%d", size), func(b *testing.B) {
			benchGemm(b, size, size, size, gemmParallel)
		})
	}
}

func BenchmarkGemmTransA(b *testing.B) {
	scalar := func(m, n, k int, a, bb, c []float32) { gemmTransAScalar(m, n, k, a, bb, c, false) }
	par := func(m, n, k int, a, bb, c []float32) { gemmTransAParallel(m, n, k, a, bb, c, false) }
	b.Run("scalar/256", func(b *testing.B) { benchGemm(b, 256, 256, 256, scalar) })
	b.Run("parallel/256", func(b *testing.B) { benchGemm(b, 256, 256, 256, par) })
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

func BenchmarkIm2Col(b *testing.B) {
	const c, h, w = 64, 32, 32
	p := ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	oh, ow := p.OutSize(h, w)
	img := make([]float32, c*h*w)
	col := make([]float32, c*p.KernelH*p.KernelW*oh*ow)
	fillPattern(img, 3)
	b.SetBytes(int64(len(col) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(img, c, h, w, p, col)
	}
}

func BenchmarkCol2Im(b *testing.B) {
	const c, h, w = 64, 32, 32
	p := ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	oh, ow := p.OutSize(h, w)
	img := make([]float32, c*h*w)
	col := make([]float32, c*p.KernelH*p.KernelW*oh*ow)
	fillPattern(col, 4)
	b.SetBytes(int64(len(col) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Col2Im(col, c, h, w, p, img)
	}
}
