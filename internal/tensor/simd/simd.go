// Package simd is the hand-written vector backend under the tensor hot
// kernels: AVX2/FMA assembly for the float32 streaming loops (axpy, the
// SMB accumulate add, the fused SEASGD elastic sweeps, the momentum-SGD
// solver sweep, the dense step's row kernel, the ReLU mask, the broadcast
// bias add, the gemm quad-row microkernel, the a×b 4×16 tile microkernel
// and the a×bᵀ 4×8 tile microkernel), selected once at process start by a CPUID
// feature probe and exposed to internal/tensor as plain functions the
// dispatcher stores in indirect function pointers.
//
// Selection policy, in order:
//
//  1. A `noasm` build tag removes the assembly entirely; the package
//     compiles to panicking stubs and Enabled() is false. This is the
//     portable build CI exercises alongside the default one.
//  2. The SHMCAFFE_NOSIMD environment variable (any non-empty value)
//     forces the portable path at runtime without rebuilding.
//  3. The CPUID probe (cpu_amd64.go) requires AVX2, FMA, and OS support
//     for YMM state (OSXSAVE + XGETBV) — all three or nothing, so a
//     single Enabled() answer covers every kernel.
//
// Numerical contract (see DESIGN.md §14): every kernel except
// FusedAxpyCopy is bitwise-identical to the scalar-unrolled Go fallback
// in internal/tensor — vector lanes evaluate the same mul/add/sub
// sequence per element, tails run the identical scalar recurrence inside
// the assembly, and operand order is preserved so NaN propagation
// matches. FusedAxpyCopy is FMA-contracted (one rounding for
// alpha*x + y instead of two) and is therefore correctly rounded: within
// 1 ULP of the float64 reference, but not bitwise-equal to the portable
// path. Callers that need cross-backend bitwise reproducibility set
// SHMCAFFE_NOSIMD or build with -tags noasm.
//
// The kernels tolerate any slice lengths (they iterate over the shortest
// operand, matching the Go fallbacks), accept unaligned bases (VMOVUPS
// throughout — alignment costs nothing on the cores this targets), and
// allow the same exact-aliasing patterns the portable kernels document.
package simd

// enabled and backend are decided once, at package init, by the
// per-architecture probe (cpu_amd64.go) or the stub build
// (simd_noasm.go). Nothing mutates them afterwards, so callers may cache
// the answers.
var (
	enabled bool
	backend = "portable"
)

// Enabled reports whether the assembly backend passed the feature probe
// and is safe to call. When false the kernel functions must not be
// invoked (the stubs panic; the amd64 kernels would execute AVX2 on a
// CPU that may lack it).
func Enabled() bool { return enabled }

// Backend names the active implementation: "avx2+fma" when the assembly
// is live, "portable" otherwise.
func Backend() string { return backend }
