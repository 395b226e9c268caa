package tensor

import (
	"math"
	"testing"

	"shmcaffe/internal/tensor/simd"
)

func bitwiseEqual32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b)
}

// SIMD-vs-scalar equivalence across every tail class. The AVX2 kernels run
// 32/16/8-wide main loops with scalar VEX tails, so the interesting lengths
// are every residue mod 16 (0–15) on top of zero or more full vectors, at
// every unaligned starting offset within a 64-byte line. The contract
// (DESIGN.md §14):
//
//   - Axpy / Add / FusedElasticStep / FusedElasticExchange /
//     FusedMomentumStep: bitwise equal to the scalar kernels on every
//     backend — no FMA contraction, same per-element expression order.
//   - FusedAxpyCopy: bitwise on the portable backend; within 1 ULP of the
//     float64 reference when the FMA backend is active (one rounding versus
//     the scalar kernel's two).
func TestSimdTailAndOffsetEquivalence(t *testing.T) {
	t.Logf("simd backend: %s enabled=%v", simd.Backend(), simd.Enabled())
	const maxVec = 64 // up to two full 32-wide axpy iterations
	alphas := []float32{0, 1, -1, 0.37, -2.5}
	for _, base := range []int{0, 16, 32, maxVec} {
		for tail := 0; tail < 16; tail++ {
			n := base + tail
			for off := 0; off < 16; off++ {
				// Backing arrays sized so every offset slice holds n elements.
				raw := func(seed int) []float32 {
					s := make([]float32, off+n)
					fillPattern(s, seed)
					return s[off : off+n]
				}
				for _, alpha := range alphas {
					x := raw(1)
					ys := raw(2)
					yd := make([]float32, n)
					copy(yd, ys)
					AxpySliceScalar(alpha, x, ys)
					AxpySlice(alpha, x, yd)
					for i := range ys {
						if !bitwiseEqual32(ys[i], yd[i]) {
							t.Fatalf("Axpy n=%d off=%d alpha=%v i=%d: simd=%v scalar=%v", n, off, alpha, i, yd[i], ys[i])
						}
					}

					delta := raw(3)
					local := raw(4)
					global := raw(5)
					wantDelta := append([]float32(nil), delta...)
					wantLocal := append([]float32(nil), local...)
					wantGlobal := append([]float32(nil), global...)
					fusedElasticStepScalar(alpha, wantDelta, wantLocal, wantGlobal)
					FusedElasticStep(alpha, delta, local, global)
					assertBitwiseSlices(t, "FusedElasticStep", n, off, alpha, delta, wantDelta, local, wantLocal)

					delta, local, global = raw(6), raw(7), raw(8)
					wantDelta = append([]float32(nil), delta...)
					wantLocal = append([]float32(nil), local...)
					wantGlobal = append([]float32(nil), global...)
					fusedElasticExchangeScalar(alpha, wantDelta, wantLocal, wantGlobal)
					FusedElasticExchange(alpha, delta, local, global)
					assertBitwiseSlices(t, "FusedElasticExchange", n, off, alpha, delta, wantDelta, local, wantLocal)
					assertBitwiseSlices(t, "FusedElasticExchange/global", n, off, alpha, global, wantGlobal, nil, nil)

					x, ys = raw(9), raw(10)
					dst := raw(11)
					ref := fmaRef64(alpha, x, ys)
					want := make([]float32, n)
					fusedAxpyCopyScalar(alpha, x, ys, want)
					FusedAxpyCopy(alpha, x, ys, dst)
					if SimdEnabled() {
						assertWithin1ULP(t, "FusedAxpyCopy", dst, ref)
					} else {
						assertBitwiseSlices(t, "FusedAxpyCopy", n, off, alpha, dst, want, nil, nil)
					}
				}
			}
		}
	}
}

// TestSimdFusedMomentumTailAndOffset runs the solver sweep at every residue
// mod 16 on top of zero to four full vectors, at every start offset within a
// 64-byte line, plain and Nesterov, clamp off and on: dispatched, portable
// and scalar reference agree bit for bit and the gradient ends +0.
func TestSimdFusedMomentumTailAndOffset(t *testing.T) {
	for _, base := range []int{0, 16, 32} {
		for tail := 0; tail < 16; tail++ {
			n := base + tail
			for off := 0; off < 16; off++ {
				raw := func(seed int) []float32 {
					s := make([]float32, off+n)
					fillPattern(s, seed)
					return s[off : off+n]
				}
				for _, nesterov := range []bool{false, true} {
					for _, clip := range []float32{0, 2.5} {
						checkMomentumStep(t, "FusedMomentumStep", 0.05, 0.9, 5e-4, clip, nesterov, raw(1), raw(2), raw(3))
					}
				}
			}
		}
	}
}

// TestSimdAliasedDstTails exercises the documented aliasing mode
// (dst == y, the in-place production call shape) across every tail length.
func TestSimdAliasedDstTails(t *testing.T) {
	for n := 0; n < 40; n++ {
		x := make([]float32, n)
		y := make([]float32, n)
		fillPattern(x, 21)
		fillPattern(y, 22)
		ref := fmaRef64(0.7, x, y)
		want := make([]float32, n)
		fusedAxpyCopyScalar(0.7, x, y, want)
		FusedAxpyCopy(0.7, x, y, y) // dst aliases y
		if SimdEnabled() {
			assertWithin1ULP(t, "FusedAxpyCopy aliased", y, ref)
		} else {
			assertBitwiseSlices(t, "FusedAxpyCopy aliased", n, 0, 0.7, y, want, nil, nil)
		}
	}
}

func assertBitwiseSlices(t *testing.T, tag string, n, off int, alpha float32, got, want, got2, want2 []float32) {
	t.Helper()
	for i := range want {
		if !bitwiseEqual32(got[i], want[i]) {
			t.Fatalf("%s n=%d off=%d alpha=%v i=%d: simd=%v scalar=%v", tag, n, off, alpha, i, got[i], want[i])
		}
	}
	for i := range want2 {
		if !bitwiseEqual32(got2[i], want2[i]) {
			t.Fatalf("%s (second output) n=%d off=%d alpha=%v i=%d: simd=%v scalar=%v", tag, n, off, alpha, i, got2[i], want2[i])
		}
	}
}
