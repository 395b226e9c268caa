package tensor

import "shmcaffe/internal/tensor/simd"

// Kernel dispatch. The exported hot kernels (AxpySlice, FusedElasticStep,
// FusedElasticExchange, FusedAxpyCopy, FusedCopyAdd, FusedMomentumStep,
// MaskPositive) and the blocked gemm call through the indirect function
// pointers below. The pointers default to the portable bodies and are
// swapped exactly once, at package init, to the AVX2/FMA assembly in
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
	maskPositiveImpl         = maskPositiveBits

	// gemmInner4 is the quad-row gemm microkernel; nil means the blocked
	// kernel runs its pure-Go inner loop (see gemmRows).
	gemmInner4 func(a, b *float32, ldb int, c *float32, n int)

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
	maskPositiveImpl = simd.MaskPositive
	gemmInner4 = simd.GemmInner4
	gemmTransB4x8 = simd.GemmTransB4x8
	gemmTransB1x8 = simd.GemmTransB1x8
}

// SimdBackend names the kernel backend the dispatcher selected at init:
// "avx2+fma" or "portable". Surfaced in the benchmark reports so
// committed numbers say what they measured.
func SimdBackend() string { return simd.Backend() }

// SimdEnabled reports whether the assembly backend is live; tests use it
// to pick the equivalence policy for the FMA-contracted kernel.
func SimdEnabled() bool { return simd.Enabled() }
