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
					axpySliceScalar(alpha, x, ys)
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
					if simd.Enabled() {
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
		if simd.Enabled() {
			assertWithin1ULP(t, "FusedAxpyCopy aliased", y, ref)
		} else {
			assertBitwiseSlices(t, "FusedAxpyCopy aliased", n, 0, 0.7, y, want, nil, nil)
		}
	}
}

// maskEdgeValues are the float32s where a masked kernel could part from a
// `> 0` compare (the same set as internal/nn's edgeValues): NaNs of both
// signs and with payloads, ±0, ±Inf, the extreme subnormals and normals,
// and ordinary values of both signs.
var maskEdgeValues = []float32{
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

// maskPositiveBranch is the `m[i] > 0` branch MaskPositive must match.
func maskPositiveBranch(dst, x, m []float32) {
	for i := range dst {
		if m[i] > 0 {
			dst[i] = x[i]
		} else {
			dst[i] = 0
		}
	}
}

// TestSimdMaskPositiveEdgeValues runs MaskPositive at every length 0–33
// (empty, the VEX-scalar tail alone, and one to four 8-wide blocks with
// every tail) over the edge values rotated through every lane, in ReLU's
// two call shapes: forward (dst = x = m) and backward (dst, x and m
// distinct). The dispatched kernel, the portable body and the branch agree
// bit for bit.
func TestSimdMaskPositiveEdgeValues(t *testing.T) {
	t.Logf("simd backend: %s enabled=%v", simd.Backend(), simd.Enabled())
	e := len(maskEdgeValues)
	for n := 0; n <= 33; n++ {
		for r := 0; r < e; r++ {
			x, m := make([]float32, n), make([]float32, n)
			for i := range x {
				x[i] = maskEdgeValues[(i*7+r)%e]
				m[i] = maskEdgeValues[(i+r)%e]
			}
			want := make([]float32, n)
			maskPositiveBranch(want, x, m)
			portable := make([]float32, n)
			maskPositiveBits(portable, x, m)
			assertBitwiseSlices(t, "MaskPositive portable/backward", n, r, 0, portable, want, nil, nil)
			dst := make([]float32, n)
			fillPattern(dst, r)
			MaskPositive(dst, x, m)
			assertBitwiseSlices(t, "MaskPositive backward", n, r, 0, dst, want, nil, nil)

			maskPositiveBranch(want, m, m)
			maskPositiveBits(portable, m, m)
			assertBitwiseSlices(t, "MaskPositive portable/forward", n, r, 0, portable, want, nil, nil)
			MaskPositive(m, m, m)
			assertBitwiseSlices(t, "MaskPositive forward", n, r, 0, m, want, nil, nil)
		}
	}
}

// TestSimdAddConstEdgeValues runs AddConst at every length 0–33 (empty,
// the VEX-scalar tail alone, and one to four 8-wide blocks with every
// tail) over the edge values rotated through every lane, with every edge
// value as the constant: the dispatched kernel and the portable loop agree
// bit for bit with y[i] + v, NaN payloads included.
func TestSimdAddConstEdgeValues(t *testing.T) {
	t.Logf("simd backend: %s enabled=%v", simd.Backend(), simd.Enabled())
	e := len(maskEdgeValues)
	for n := 0; n <= 33; n++ {
		for r := 0; r < e; r++ {
			for _, v := range maskEdgeValues {
				y := make([]float32, n)
				want := make([]float32, n)
				for i := range y {
					y[i] = maskEdgeValues[(i+r)%e]
					want[i] = y[i] + v
				}
				portable := append([]float32(nil), y...)
				addConstLoop(portable, v)
				assertBitwiseSlices(t, "AddConst portable", n, r, v, portable, want, nil, nil)
				AddConst(y, v)
				assertBitwiseSlices(t, "AddConst", n, r, v, y, want, nil, nil)
			}
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
