package tensor

import (
	"fmt"
	"math"
	"testing"
)

// gemmTransBScalar is the seed's original a×bᵀ kernel, kept as the
// reference: each c[i][j] is one serial dot product, summed from +0 over
// l ascending with a rounding per multiply and per add. MatMulTransB must
// reproduce it bit for bit on every backend.
func gemmTransBScalar(m, n, k int, a, b, c []float32) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s float32
			for l, av := range arow {
				s += av * brow[l]
			}
			crow[j] = s
		}
	}
}

// transBModelShapes are the a×bᵀ calls the zoo models make (m×n×k): the
// batch-1 wide MLP's dX (1024 and 256 inputs over 1024 outputs), and the
// SmallCNN batch-16 step's conv1/conv2 weight gradients and fc1 dX.
var transBModelShapes = []struct{ m, n, k int }{
	{1, 1024, 1024},
	{1, 256, 1024},
	{8, 27, 256},
	{16, 72, 64},
	{16, 256, 64},
}

// transBShapes is every shape TestMatMulTransBBitwise drives: gemmShapes,
// the model shapes, one shape that fans rows out through the pool with
// both overlapped tails and a k%4 remainder, and a sweep of m = 1…9 over
// the microkernel's edges — n around its 8-column tile (n < 8 falls back
// to the tiled loop, n%8 ≠ 0 overlaps the last tile), k around its 4-step
// of l (k < 4 falls back, k%4 ≠ 0 leaves a remainder), m across its
// one-row form (m < 4) and its overlapped last 4-row tile.
func transBShapes() []struct{ m, n, k int } {
	shapes := append([]struct{ m, n, k int }(nil), gemmShapes...)
	shapes = append(shapes, transBModelShapes...)
	shapes = append(shapes, struct{ m, n, k int }{19, 263, 301})
	for m := 1; m <= 9; m++ {
		for _, k := range []int{3, 4, 5, 7, 8} {
			for _, n := range []int{7, 8, 9, 15, 16, 17, 27} {
				shapes = append(shapes, struct{ m, n, k int }{m, n, k})
			}
		}
	}
	return shapes
}

func assertBitwise(t *testing.T, tag string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d: got %v (%#08x), want %v (%#08x)", tag, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestMatMulTransBBitwise: the dispatched MatMulTransB (the microkernel
// on the SIMD backend, the tiled loop on the portable one and for the
// shapes narrower than the kernel's tile) and the tiled loop itself are
// bitwise the serial reference on every shape.
func TestMatMulTransBBitwise(t *testing.T) {
	for _, s := range transBShapes() {
		tag := fmt.Sprintf("%dx%dx%d", s.m, s.n, s.k)
		a := New(s.m, s.k)
		b := New(s.n, s.k)
		fillPattern(a.Data(), 5)
		fillPattern(b.Data(), 6)
		want := make([]float32, s.m*s.n)
		gemmTransBScalar(s.m, s.n, s.k, a.Data(), b.Data(), want)

		got := New(s.m, s.n)
		fillPattern(got.Data(), 7) // every arm must overwrite, not accumulate
		if err := MatMulTransB(a, b, got); err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, "MatMulTransB "+tag, got.Data(), want)

		c := make([]float32, s.m*s.n)
		fillPattern(c, 8)
		gemmTransBTiled(s.m, s.n, s.k, a.Data(), b.Data(), c)
		assertBitwise(t, "tiled "+tag, c, want)
	}
}

// TestGemmTransBTiledSpecialValues: neither the tiled loop nor the
// microkernel skips anything, so both are bitwise the reference on
// non-finite and signed-zero data too — −0 operands (the sum still starts
// at +0), subnormal products, and sums that overflow to ±Inf or meet
// Inf·0 = NaN. Two NaN results count as equal whatever their payloads.
// The shapes cover the tiled loop (n < 8, k < 4) and, on the SIMD
// backend, the kernel's one-row form, its 4-row tile, both overlapped
// tails and its k%4 remainder.
func TestGemmTransBTiledSpecialValues(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	sub := math.Float32frombits(0x00000003) // a subnormal
	huge := float32(3e38)
	inf := float32(math.Inf(1))
	pool := []float32{negZero, 0, sub, -sub, 1e-30, -1e-30, huge, -huge, 2, -0.5, inf, -inf}
	shapes := []struct{ m, n, k int }{
		{1, 9, 7}, {2, 13, 5}, {3, 4, 1}, {1, 5, 16},
		{1, 8, 4}, {3, 17, 12}, {4, 8, 8}, {5, 9, 7}, {7, 27, 13}, {9, 16, 6},
	}
	for _, s := range shapes {
		a := make([]float32, s.m*s.k)
		b := make([]float32, s.n*s.k)
		for i := range a {
			a[i] = pool[(i*5+1)%len(pool)]
		}
		for i := range b {
			b[i] = pool[(i*7+3)%len(pool)]
		}
		// Row 0 of A is all −0: every output of it must be +0 (or NaN
		// against an Inf), exactly as the reference computes it.
		for l := 0; l < s.k; l++ {
			a[l] = negZero
		}
		want := make([]float32, s.m*s.n)
		gemmTransBScalar(s.m, s.n, s.k, a, b, want)
		for name, got := range transBArms(s.m, s.n, s.k, a, b) {
			for i := range want {
				w, g := want[i], got[i]
				if math.Float32bits(w) != math.Float32bits(g) &&
					!(math.IsNaN(float64(w)) && math.IsNaN(float64(g))) {
					t.Fatalf("%s %dx%dx%d element %d: got %v (%#08x), want %v (%#08x)", name,
						s.m, s.n, s.k, i, g, math.Float32bits(g), w, math.Float32bits(w))
				}
			}
		}
		// Subnormal-only operands: products underflow, sums stay subnormal.
		for i := range a {
			a[i] = sub * float32(1+i%3)
		}
		for i := range b {
			b[i] = float32(i%5) - 2
		}
		gemmTransBScalar(s.m, s.n, s.k, a, b, want)
		for name, got := range transBArms(s.m, s.n, s.k, a, b) {
			assertBitwise(t, fmt.Sprintf("subnormal %s %dx%dx%d", name, s.m, s.n, s.k), got, want)
		}
	}
}

// transBArms runs C = A×Bᵀ through the tiled loop and through the
// dispatched MatMulTransB.
func transBArms(m, n, k int, a, b []float32) map[string][]float32 {
	tiled := make([]float32, m*n)
	gemmTransBTiled(m, n, k, a, b, tiled)
	dst := New(m, n)
	if err := MatMulTransB(MustFromSlice(a, m, k), MustFromSlice(b, n, k), dst); err != nil {
		panic(err)
	}
	return map[string][]float32{"tiled": tiled, "MatMulTransB": dst.Data()}
}
