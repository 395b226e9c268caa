package tensor

import "shmcaffe/internal/tensor/simd"

// Kernel dispatch. The exported hot kernels (AxpySlice, FusedElasticStep,
// FusedElasticExchange, FusedAxpyCopy, FusedCopyAdd, FusedMomentumStep,
// MaskPositive, AddConst, FusedDenseStep's row kernel) and the blocked
// gemm call through the indirect function pointers below. The pointers default to the portable bodies and
// are swapped exactly once, at package init, to the AVX2/FMA assembly in
// internal/tensor/simd when its CPUID probe passes — so steady state pays
// one indirect call and zero branches per kernel invocation, and a build
// with `-tags noasm` (or a run with SHMCAFFE_NOSIMD set) never leaves the
// portable path.
//
// tensor's init runs after simd's (import dependency), so simd.Enabled()
// is already final here and nothing ever mutates these pointers again;
// concurrent kernel callers see a fixed dispatch table.
var (
	axpyImpl                 = axpySliceUnrolled
	addImpl                  = addSliceUnrolled
	fusedElasticStepImpl     = fusedElasticStepUnrolled
	fusedElasticExchangeImpl = fusedElasticExchangeUnrolled
	fusedAxpyCopyImpl        = fusedAxpyCopyUnrolled
	fusedCopyAddImpl         = fusedCopyAddUnrolled
	fusedMomentumStepImpl    = fusedMomentumStepUnrolled
	denseRowStepImpl         = denseRowStepStrips
	maskPositiveImpl         = maskPositiveBits
	addConstImpl             = addConstLoop

	// gemmInner4 is the row kernel's quad-row microkernel; nil means
	// gemmRows runs the dispatched axpy for every k-step.
	gemmInner4 func(a *float32, sl int, b *float32, ldb int, c *float32, n int)

	// gemmTile4x16 is the a×b register-tile microkernel; nil means
	// gemmTiles hands all of C to the row kernel.
	gemmTile4x16 func(a *float32, sa, sl int, b *float32, ldb, k int, c *float32, ldc int)

	// gemmTransB4x8 and gemmTransB1x8 are the a×bᵀ microkernel's 4-row and
	// one-row forms; nil means gemmTransBRows runs the tiled Go loop.
	gemmTransB4x8 func(a, b *float32, ld, k int, c *float32, ldc int)
	gemmTransB1x8 func(a, b *float32, ld, k int, c *float32)
)

func init() {
	if !simd.Enabled() {
		return
	}
	axpyImpl = simd.Axpy
	addImpl = simd.Add
	fusedElasticStepImpl = simd.FusedElasticStep
	fusedElasticExchangeImpl = simd.FusedElasticExchange
	fusedAxpyCopyImpl = simd.FusedAxpyCopy
	fusedCopyAddImpl = simd.FusedCopyAdd
	fusedMomentumStepImpl = simd.FusedMomentumStep
	denseRowStepImpl = simd.DenseRowStep
	maskPositiveImpl = simd.MaskPositive
	addConstImpl = simd.AddConst
	gemmInner4 = simd.GemmInner4
	gemmTile4x16 = simd.GemmTile4x16
	gemmTransB4x8 = simd.GemmTransB4x8
	gemmTransB1x8 = simd.GemmTransB1x8
}

// SimdBackend names the kernel backend the dispatcher selected at init:
// "avx2+fma" or "portable". Surfaced in the benchmark reports so
// committed numbers say what they measured.
func SimdBackend() string { return simd.Backend() }
