package tensor

import (
	"math"
	"testing"
)

// fusedSizes exercises the unrolled kernels around the lane-width
// boundaries: empty, sub-lane, exactly one block, block+tail, many blocks
// with odd tails, and a large size representative of real weight vectors.
var fusedSizes = []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65, 100, 1000, 4097}

// fusedAlphas includes the common SEASGD moving rates plus awkward values
// (negative, subnormal-producing, exactly one).
var fusedAlphas = []float32{0, 1, -1, 0.5, 0.9, 0.001, -0.25, 1.5}

// cloneSlice copies a float32 slice.
func cloneSlice(s []float32) []float32 {
	c := make([]float32, len(s))
	copy(c, s)
	return c
}

// bitsEqual reports whether two slices are bit-for-bit identical (NaNs with
// equal payloads compare equal; +0 and -0 do not).
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// axpySliceScalar is the straight-line scalar reference for AxpySlice. The
// equivalence tests and BenchmarkAxpySlice pin the dispatched kernels
// against it.
func axpySliceScalar(alpha float32, x, y []float32) {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	for i := 0; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// unaligned returns a view of data starting at an offset that is not a
// multiple of the lane width, so the unrolled body runs over blocks whose
// base address is not 32-byte aligned.
func unaligned(data []float32, off, n int) []float32 {
	return data[off : off+n]
}

// fmaRef64 computes the FusedAxpyCopy float64 reference: the float32
// operands convert and multiply exactly in float64, so each element is a
// single 53-bit rounding of the mathematically exact y + alpha*x —
// within half a float32 ULP of the true value after the final
// conversion. The FMA-contracted kernel is compared against this, not
// against the two-rounding scalar body (whose distance from the FMA
// result is unbounded under cancellation).
func fmaRef64(alpha float32, x, y []float32) []float32 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	ref := make([]float32, n)
	for i := range ref {
		ref[i] = float32(float64(y[i]) + float64(alpha)*float64(x[i]))
	}
	return ref
}

// assertWithin1ULP checks the contracted kernel output against fmaRef64:
// both are correctly rounded, so they sit at most one representable value
// apart. Same-signed overflow (one side MaxFloat32, the other Inf, which
// double rounding through float64 can produce at the overflow threshold)
// also passes.
func assertWithin1ULP(t *testing.T, tag string, got, ref []float32) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: length %d vs %d", tag, len(got), len(ref))
	}
	for i := range ref {
		if d := ulpDistance32(got[i], ref[i]); d > 1 {
			g, r := float64(got[i]), float64(ref[i])
			if math.Abs(g) >= math.MaxFloat32 && math.Abs(r) >= math.MaxFloat32 && math.Signbit(g) == math.Signbit(r) {
				continue
			}
			t.Fatalf("%s: element %d: got %v, float64 ref %v (%.1f ULPs)", tag, i, got[i], ref[i], d)
		}
	}
}

func TestFusedElasticStepMatchesScalar(t *testing.T) {
	for _, n := range fusedSizes {
		for _, alpha := range fusedAlphas {
			for _, off := range []int{0, 1, 3, 5} {
				local := make([]float32, off+n)
				global := make([]float32, off+n)
				delta := make([]float32, off+n)
				fillPattern(local, 1)
				fillPattern(global, 2)
				fillPattern(delta, 3)
				wantLocal := cloneSlice(local)
				wantDelta := cloneSlice(delta)

				FusedElasticStep(alpha, unaligned(delta, off, n), unaligned(local, off, n), unaligned(global, off, n))
				fusedElasticStepScalar(alpha, unaligned(wantDelta, off, n), unaligned(wantLocal, off, n), unaligned(global, off, n))

				if !bitsEqual(delta, wantDelta) || !bitsEqual(local, wantLocal) {
					t.Fatalf("FusedElasticStep n=%d alpha=%v off=%d diverges from scalar", n, alpha, off)
				}
			}
		}
	}
}

// TestFusedElasticStepMatchesTwoPass pins the fused sweep against the
// unfused algebra (Eq. 5 then Eq. 6 as separate passes) on disjoint
// operands — the exact sequence Worker.Run used to execute.
func TestFusedElasticStepMatchesTwoPass(t *testing.T) {
	for _, n := range fusedSizes {
		for _, alpha := range fusedAlphas {
			local := make([]float32, n)
			global := make([]float32, n)
			delta := make([]float32, n)
			fillPattern(local, 4)
			fillPattern(global, 5)
			wantLocal := cloneSlice(local)
			wantDelta := make([]float32, n)

			FusedElasticStep(alpha, delta, local, global)

			for i := 0; i < n; i++ { // Eq. 5
				wantDelta[i] = alpha * (wantLocal[i] - global[i])
			}
			for i := 0; i < n; i++ { // Eq. 6
				wantLocal[i] -= wantDelta[i]
			}
			if !bitsEqual(delta, wantDelta) || !bitsEqual(local, wantLocal) {
				t.Fatalf("FusedElasticStep n=%d alpha=%v diverges from two-pass reference", n, alpha)
			}
		}
	}
}

func TestFusedElasticExchangeMatchesScalar(t *testing.T) {
	for _, n := range fusedSizes {
		for _, alpha := range fusedAlphas {
			for _, off := range []int{0, 2} {
				local := make([]float32, off+n)
				global := make([]float32, off+n)
				delta := make([]float32, off+n)
				fillPattern(local, 6)
				fillPattern(global, 7)
				wantLocal := cloneSlice(local)
				wantGlobal := cloneSlice(global)
				wantDelta := cloneSlice(delta)

				FusedElasticExchange(alpha, unaligned(delta, off, n), unaligned(local, off, n), unaligned(global, off, n))
				fusedElasticExchangeScalar(alpha, unaligned(wantDelta, off, n), unaligned(wantLocal, off, n), unaligned(wantGlobal, off, n))

				if !bitsEqual(delta, wantDelta) || !bitsEqual(local, wantLocal) || !bitsEqual(global, wantGlobal) {
					t.Fatalf("FusedElasticExchange n=%d alpha=%v off=%d diverges from scalar", n, alpha, off)
				}
			}
		}
	}
}

func TestFusedAxpyCopyMatchesScalar(t *testing.T) {
	for _, n := range fusedSizes {
		for _, alpha := range fusedAlphas {
			for _, off := range []int{0, 1, 7} {
				x := make([]float32, off+n)
				y := make([]float32, off+n)
				dst := make([]float32, off+n)
				fillPattern(x, 8)
				fillPattern(y, 9)
				want := make([]float32, off+n)
				fallback := make([]float32, off+n)

				FusedAxpyCopy(alpha, unaligned(x, off, n), unaligned(y, off, n), unaligned(dst, off, n))
				fusedAxpyCopyScalar(alpha, unaligned(x, off, n), unaligned(y, off, n), unaligned(want, off, n))
				fusedAxpyCopyUnrolled(alpha, unaligned(x, off, n), unaligned(y, off, n), unaligned(fallback, off, n))

				// The portable body is bitwise against the scalar loop in
				// every build; the dispatched kernel is too unless it is
				// FMA-contracted, in which case it must instead sit within
				// 1 ULP of the float64 reference.
				if !bitsEqual(fallback, want) {
					t.Fatalf("fusedAxpyCopyUnrolled n=%d alpha=%v off=%d diverges from scalar", n, alpha, off)
				}
				if SimdEnabled() {
					ref := fmaRef64(alpha, unaligned(x, off, n), unaligned(y, off, n))
					assertWithin1ULP(t, "FusedAxpyCopy(fma)", unaligned(dst, off, n), ref)
				} else if !bitsEqual(dst, want) {
					t.Fatalf("FusedAxpyCopy n=%d alpha=%v off=%d diverges from scalar", n, alpha, off)
				}
			}
		}
	}
}

// TestFusedAxpyCopyAliased exercises dst aliasing each source exactly — the
// in-place forms the Residual layers use (y += alpha*x written as
// FusedAxpyCopy(alpha, x, y, y)).
func TestFusedAxpyCopyAliased(t *testing.T) {
	for _, n := range fusedSizes {
		alpha := float32(0.75)

		// dst aliases y: dst = y + alpha*x in place.
		x := make([]float32, n)
		y := make([]float32, n)
		fillPattern(x, 10)
		fillPattern(y, 11)
		ref := fmaRef64(alpha, x, y) // from pre-aliasing state
		want := cloneSlice(y)
		fusedAxpyCopyScalar(alpha, x, want, want)
		FusedAxpyCopy(alpha, x, y, y)
		if SimdEnabled() {
			assertWithin1ULP(t, "FusedAxpyCopy(fma) dst==y", y, ref)
		} else if !bitsEqual(y, want) {
			t.Fatalf("FusedAxpyCopy dst==y n=%d diverges from scalar", n)
		}

		// dst aliases x: dst = y + alpha*dst in place.
		x2 := make([]float32, n)
		y2 := make([]float32, n)
		fillPattern(x2, 12)
		fillPattern(y2, 13)
		ref2 := fmaRef64(alpha, x2, y2)
		want2 := cloneSlice(x2)
		fusedAxpyCopyScalar(alpha, want2, y2, want2)
		FusedAxpyCopy(alpha, x2, y2, x2)
		if SimdEnabled() {
			assertWithin1ULP(t, "FusedAxpyCopy(fma) dst==x", x2, ref2)
		} else if !bitsEqual(x2, want2) {
			t.Fatalf("FusedAxpyCopy dst==x n=%d diverges from scalar", n)
		}

		// alpha==1 contracts exactly, so the aliased forms the Residual
		// layers actually use stay bitwise-identical on every backend.
		x3 := make([]float32, n)
		y3 := make([]float32, n)
		fillPattern(x3, 10)
		fillPattern(y3, 11)
		want3 := cloneSlice(y3)
		fusedAxpyCopyScalar(1, x3, want3, want3)
		FusedAxpyCopy(1, x3, y3, y3)
		if !bitsEqual(y3, want3) {
			t.Fatalf("FusedAxpyCopy alpha=1 dst==y n=%d diverges from scalar", n)
		}
	}
}

// TestFusedCopyAddMatchesScalar pins the fused WRITE+ACCUMULATE body
// (src[i] = x[i]; dst[i] += x[i]) against its scalar reference and against
// the unfused copy-then-add sequence it replaces. The kernel is pure adds
// in the same element order, so every backend must be bitwise-identical —
// the transport's bitwise-convergence guarantee rests on this.
func TestFusedCopyAddMatchesScalar(t *testing.T) {
	for _, n := range fusedSizes {
		for _, off := range []int{0, 1, 7} {
			x := make([]float32, off+n)
			src := make([]float32, off+n)
			dst := make([]float32, off+n)
			fillPattern(x, 17)
			fillPattern(src, 18)
			fillPattern(dst, 19)
			wantSrc := cloneSlice(src)
			wantDst := cloneSlice(dst)
			fbSrc := cloneSlice(src)
			fbDst := cloneSlice(dst)
			// The unfused sequence this kernel replaces: copy, then add.
			twoSrc := cloneSlice(src)
			twoDst := cloneSlice(dst)

			FusedCopyAdd(unaligned(x, off, n), unaligned(src, off, n), unaligned(dst, off, n))
			fusedCopyAddScalar(unaligned(x, off, n), unaligned(wantSrc, off, n), unaligned(wantDst, off, n))
			fusedCopyAddUnrolled(unaligned(x, off, n), unaligned(fbSrc, off, n), unaligned(fbDst, off, n))
			copy(unaligned(twoSrc, off, n), unaligned(x, off, n))
			axpySliceScalar(1, unaligned(twoSrc, off, n), unaligned(twoDst, off, n))

			if !bitsEqual(src, wantSrc) || !bitsEqual(dst, wantDst) {
				t.Fatalf("FusedCopyAdd n=%d off=%d diverges from scalar", n, off)
			}
			if !bitsEqual(fbSrc, wantSrc) || !bitsEqual(fbDst, wantDst) {
				t.Fatalf("fusedCopyAddUnrolled n=%d off=%d diverges from scalar", n, off)
			}
			if !bitsEqual(twoSrc, wantSrc) || !bitsEqual(twoDst, wantDst) {
				t.Fatalf("FusedCopyAdd n=%d off=%d diverges from copy-then-add", n, off)
			}
		}
	}
}

// TestFusedCopyAddSpecialValues runs the fused WRITE+ACCUMULATE body over
// NaN, ±Inf, subnormals and signed zeros.
func TestFusedCopyAddSpecialValues(t *testing.T) {
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32,
		-math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32, 1, -1,
	}
	n := 3*fusedLanes + 5
	x := make([]float32, n)
	dst := make([]float32, n)
	for i := range x {
		x[i] = specials[i%len(specials)]
		dst[i] = specials[(i+4)%len(specials)]
	}
	src := make([]float32, n)
	wantSrc := make([]float32, n)
	wantDst := cloneSlice(dst)
	FusedCopyAdd(x, src, dst)
	fusedCopyAddScalar(x, wantSrc, wantDst)
	if !bitsEqual(src, wantSrc) || !bitsEqual(dst, wantDst) {
		t.Fatal("FusedCopyAdd diverges from scalar on IEEE special values")
	}
}

func TestAxpySliceMatchesScalar(t *testing.T) {
	for _, n := range fusedSizes {
		for _, alpha := range fusedAlphas {
			for _, off := range []int{0, 3} {
				x := make([]float32, off+n)
				y := make([]float32, off+n)
				fillPattern(x, 14)
				fillPattern(y, 15)
				want := cloneSlice(y)

				AxpySlice(alpha, unaligned(x, off, n), unaligned(y, off, n))
				axpySliceScalar(alpha, unaligned(x, off, n), unaligned(want, off, n))

				if !bitsEqual(y, want) {
					t.Fatalf("AxpySlice n=%d alpha=%v off=%d diverges from scalar", n, alpha, off)
				}
			}
		}
	}
}

// TestAxpySliceAliased pins y aliasing x exactly (y += alpha*y).
func TestAxpySliceAliased(t *testing.T) {
	for _, n := range fusedSizes {
		x := make([]float32, n)
		fillPattern(x, 16)
		want := cloneSlice(x)
		axpySliceScalar(0.5, want, want)
		AxpySlice(0.5, x, x)
		if !bitsEqual(x, want) {
			t.Fatalf("AxpySlice y==x n=%d diverges from scalar", n)
		}
	}
}

// TestFusedKernelsSpecialValues runs the fused kernels over NaN, ±Inf,
// subnormals and signed zeros to confirm the unrolled bodies propagate IEEE
// special values exactly as the scalar loops do.
func TestFusedKernelsSpecialValues(t *testing.T) {
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32,
		-math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32, 1, -1,
	}
	n := 3 * fusedLanes
	local := make([]float32, n)
	global := make([]float32, n)
	for i := range local {
		local[i] = specials[i%len(specials)]
		global[i] = specials[(i+3)%len(specials)]
	}
	delta := make([]float32, n)
	wantLocal := cloneSlice(local)
	wantDelta := make([]float32, n)
	FusedElasticStep(0.9, delta, local, global)
	fusedElasticStepScalar(0.9, wantDelta, wantLocal, global)
	if !bitsEqual(delta, wantDelta) || !bitsEqual(local, wantLocal) {
		t.Fatal("FusedElasticStep diverges from scalar on IEEE special values")
	}

	// The solver sweep: every special in every position of w, g and v, plus
	// gradients exactly at ±clip and one ULP past it, clamp on and off.
	const clip = 0.5
	specials = []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32,
		-math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32, 1, -1,
		clip, -clip, math.Nextafter32(clip, 1), math.Nextafter32(-clip, -1), 1e-39, -1e-39,
	}
	n = 3*len(specials) + 5 // vector blocks and a scalar tail
	for _, nesterov := range []bool{false, true} {
		for _, c := range []float32{0, clip} {
			for rot := 0; rot < len(specials); rot++ {
				w := make([]float32, n)
				g := make([]float32, n)
				v := make([]float32, n)
				for i := range w {
					w[i] = specials[i%len(specials)]
					g[i] = specials[(i+rot)%len(specials)]
					v[i] = specials[(i+2*rot+1)%len(specials)]
				}
				checkMomentumStep(t, "special", 0.1, 0.9, 1e-4, c, nesterov, w, g, v)
			}
		}
	}
}

// checkMomentumStep runs FusedMomentumStep on (w, g, v) in place through the
// dispatcher, and on copies through the portable body and the scalar
// reference, and fails unless all three agree bit for bit and every
// consumed gradient is +0 afterwards.
func checkMomentumStep(t *testing.T, tag string, lr, mom, wd, clip float32, nesterov bool, w, g, v []float32) {
	t.Helper()
	fbW, fbG, fbV := cloneSlice(w), cloneSlice(g), cloneSlice(v)
	refW, refG, refV := cloneSlice(w), cloneSlice(g), cloneSlice(v)
	FusedMomentumStep(lr, mom, wd, clip, nesterov, w, g, v)
	unrolledClip := clip
	if !(clip > 0) {
		unrolledClip = float32(math.Inf(1))
	}
	fusedMomentumStepUnrolled(lr, mom, wd, unrolledClip, nesterov, fbW, fbG, fbV)
	fusedMomentumStepScalar(lr, mom, wd, clip, nesterov, refW, refG, refV)
	for i := range refW {
		if !bitwiseEqual32(w[i], refW[i]) || !bitwiseEqual32(v[i], refV[i]) {
			t.Fatalf("%s nesterov=%v clip=%v i=%d: dispatched (w %v, v %v) != scalar (w %v, v %v)",
				tag, nesterov, clip, i, w[i], v[i], refW[i], refV[i])
		}
		if !bitwiseEqual32(fbW[i], refW[i]) || !bitwiseEqual32(fbV[i], refV[i]) {
			t.Fatalf("%s nesterov=%v clip=%v i=%d: portable (w %v, v %v) != scalar (w %v, v %v)",
				tag, nesterov, clip, i, fbW[i], fbV[i], refW[i], refV[i])
		}
		if math.Float32bits(g[i]) != 0 || math.Float32bits(fbG[i]) != 0 || math.Float32bits(refG[i]) != 0 {
			t.Fatalf("%s nesterov=%v clip=%v i=%d: gradient not cleared to +0 (dispatched %v, portable %v, scalar %v)",
				tag, nesterov, clip, i, g[i], fbG[i], refG[i])
		}
	}
}

// FuzzFusedKernels drives every fused kernel through the dispatcher AND
// through the portable unrolled fallback against the scalar references
// with fuzz-chosen lengths, offsets and bit patterns. On an AVX2 host the
// dispatched path is the assembly, so one fuzz run cross-checks the
// dispatched and `noasm` implementations against the same reference; the
// FMA-contracted FusedAxpyCopy is instead held to the float64 reference.
// FusedMomentumStep takes alpha as its learning rate and momBits as its
// momentum; mode picks Nesterov (bit 0) and the clamp (bit 1).
func FuzzFusedKernels(f *testing.F) {
	f.Add(uint16(8), uint8(0), uint32(0x3f000000), int64(1), uint32(0x3f666666), uint8(0))
	f.Add(uint16(17), uint8(3), uint32(0x3f800000), int64(42), uint32(0x3f666666), uint8(3))
	f.Add(uint16(0), uint8(1), uint32(0xbf800000), int64(7), uint32(0), uint8(1))
	f.Add(uint16(255), uint8(5), uint32(0x7fc00000), int64(99), uint32(0x3f000000), uint8(2)) // NaN alpha / lr
	f.Add(uint16(131), uint8(6), uint32(0x3dcccccd), int64(5), uint32(0x7fc00000), uint8(3))  // NaN momentum
	f.Fuzz(func(t *testing.T, rawN uint16, rawOff uint8, alphaBits uint32, seed int64, momBits uint32, mode uint8) {
		n := int(rawN) % 300
		off := int(rawOff) % 8
		alpha := math.Float32frombits(alphaBits)

		local := make([]float32, off+n)
		global := make([]float32, off+n)
		delta := make([]float32, off+n)
		fillPattern(local, int(seed))
		fillPattern(global, int(seed)+1)
		wantLocal := cloneSlice(local)
		wantGlobal := cloneSlice(global)
		wantDelta := cloneSlice(delta)

		// Fallback copies: the portable unrolled kernels run on identical
		// inputs so the noasm path is fuzzed in the same breath.
		fbLocal := cloneSlice(local)
		fbGlobal := cloneSlice(global)
		fbDelta := cloneSlice(delta)

		FusedElasticStep(alpha, delta[off:], local[off:], global[off:])
		fusedElasticStepScalar(alpha, wantDelta[off:], wantLocal[off:], wantGlobal[off:])
		fusedElasticStepUnrolled(alpha, fbDelta[off:], fbLocal[off:], fbGlobal[off:])
		if !bitsEqual(delta, wantDelta) || !bitsEqual(local, wantLocal) {
			t.Fatalf("FusedElasticStep n=%d off=%d alpha=%x diverges", n, off, alphaBits)
		}
		if !bitsEqual(fbDelta, wantDelta) || !bitsEqual(fbLocal, wantLocal) {
			t.Fatalf("fusedElasticStepUnrolled n=%d off=%d alpha=%x diverges", n, off, alphaBits)
		}

		FusedElasticExchange(alpha, delta[off:], local[off:], global[off:])
		fusedElasticExchangeScalar(alpha, wantDelta[off:], wantLocal[off:], wantGlobal[off:])
		fusedElasticExchangeUnrolled(alpha, fbDelta[off:], fbLocal[off:], fbGlobal[off:])
		if !bitsEqual(delta, wantDelta) || !bitsEqual(local, wantLocal) || !bitsEqual(global, wantGlobal) {
			t.Fatalf("FusedElasticExchange n=%d off=%d alpha=%x diverges", n, off, alphaBits)
		}
		if !bitsEqual(fbDelta, wantDelta) || !bitsEqual(fbLocal, wantLocal) || !bitsEqual(fbGlobal, wantGlobal) {
			t.Fatalf("fusedElasticExchangeUnrolled n=%d off=%d alpha=%x diverges", n, off, alphaBits)
		}

		ref := fmaRef64(alpha, wantLocal[off:], wantGlobal[off:])
		FusedAxpyCopy(alpha, local[off:], global[off:], delta[off:])
		fusedAxpyCopyScalar(alpha, wantLocal[off:], wantGlobal[off:], wantDelta[off:])
		fusedAxpyCopyUnrolled(alpha, fbLocal[off:], fbGlobal[off:], fbDelta[off:])
		if !bitsEqual(fbDelta, wantDelta) {
			t.Fatalf("fusedAxpyCopyUnrolled n=%d off=%d alpha=%x diverges", n, off, alphaBits)
		}
		if SimdEnabled() {
			assertWithin1ULP(t, "FusedAxpyCopy(fma)", delta[off:], ref)
			// Resync: the contracted delta may sit 1 ULP off the scalar
			// one, and delta feeds the next kernel as an input.
			copy(delta, wantDelta)
		} else if !bitsEqual(delta, wantDelta) {
			t.Fatalf("FusedAxpyCopy n=%d off=%d alpha=%x diverges", n, off, alphaBits)
		}

		FusedCopyAdd(delta[off:], local[off:], global[off:])
		fusedCopyAddScalar(wantDelta[off:], wantLocal[off:], wantGlobal[off:])
		fusedCopyAddUnrolled(fbDelta[off:], fbLocal[off:], fbGlobal[off:])
		if !bitsEqual(local, wantLocal) || !bitsEqual(global, wantGlobal) {
			t.Fatalf("FusedCopyAdd n=%d off=%d diverges", n, off)
		}
		if !bitsEqual(fbLocal, wantLocal) || !bitsEqual(fbGlobal, wantGlobal) {
			t.Fatalf("fusedCopyAddUnrolled n=%d off=%d diverges", n, off)
		}

		copy(fbLocal, local)
		AxpySlice(alpha, delta[off:], local[off:])
		axpySliceScalar(alpha, wantDelta[off:], wantLocal[off:])
		axpySliceUnrolled(alpha, wantDelta[off:], fbLocal[off:])
		if !bitsEqual(local, wantLocal) {
			t.Fatalf("AxpySlice n=%d off=%d alpha=%x diverges", n, off, alphaBits)
		}
		if !bitsEqual(fbLocal, wantLocal) {
			t.Fatalf("axpySliceUnrolled n=%d off=%d alpha=%x diverges", n, off, alphaBits)
		}

		var clip float32
		if mode&2 != 0 {
			clip = 0.75
		}
		checkMomentumStep(t, "fuzz", alpha, math.Float32frombits(momBits), 1e-3, clip, mode&1 != 0,
			local[off:], global[off:], delta[off:])
	})
}
