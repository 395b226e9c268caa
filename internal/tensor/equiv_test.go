package tensor

import (
	"errors"
	"math"
	"testing"

	"shmcaffe/internal/parallel"
)

// Equivalence suite: the blocked/parallel kernels must match the scalar
// reference kernels within 4 ULPs on every shape — odd sizes, single
// elements, and sizes that do not divide evenly by the partition grain or
// the cache-block edges. (In fact the row partition preserves the exact
// per-element accumulation order, so the expected distance is 0; the 4-ULP
// budget is the contract we promise even if the blocking changes.)

// ulpDistance32 returns the distance between a and b in units of the last
// place of a (the SNIPPETS.md exemplar's comparison, specialised to our
// finite-only kernels).
func ulpDistance32(a, b float32) float64 {
	if a == b {
		return 0
	}
	if math.IsNaN(float64(a)) && math.IsNaN(float64(b)) {
		return 0
	}
	if math.IsInf(float64(a), 0) || math.IsInf(float64(b), 0) {
		if a == b {
			return 0
		}
		return math.Inf(1)
	}
	diff := math.Abs(float64(a) - float64(b))
	ulp := math.Abs(float64(math.Nextafter32(a, float32(math.Inf(1))) - a))
	if ulp == 0 {
		ulp = 1e-45 // smallest positive subnormal float32
	}
	return diff / ulp
}

const ulpBudget = 4

// fillPattern deterministically fills a slice with a mix of magnitudes,
// signs, and exact zeros (the scalar kernels skip zeros, so zero handling
// must agree too).
func fillPattern(dst []float32, seed int) {
	for i := range dst {
		switch (i + seed) % 7 {
		case 0:
			dst[i] = 0
		case 1:
			dst[i] = float32(i%13) * 0.25
		case 2:
			dst[i] = -float32(i%11) * 1.5
		case 3:
			dst[i] = float32(seed+i%29) * 1e-3
		case 4:
			dst[i] = -1e4 / float32(1+i%17)
		case 5:
			dst[i] = float32(i%5) - 2.5
		default:
			dst[i] = 1 / float32(1+i%23)
		}
	}
}

func assertULP(t *testing.T, tag string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", tag, len(got), len(want))
	}
	for i := range got {
		if d := ulpDistance32(got[i], want[i]); d > ulpBudget {
			t.Fatalf("%s: element %d: got %v, want %v (%.1f ULPs)", tag, i, got[i], want[i], d)
		}
	}
}

// gemmShapes covers empty-ish, 1-element, odd, and non-grain-aligned sizes
// (gemmRowGrain is 8, the cache blocks are 256: 257/511/13 all straddle).
var gemmShapes = []struct{ m, n, k int }{
	{1, 1, 1},
	{1, 7, 3},
	{3, 1, 5},
	{13, 17, 19},
	{8, 8, 8},
	{9, 33, 257},
	{31, 257, 13},
	{64, 64, 64},
	{70, 129, 300},
}

func TestGemmParallelMatchesScalar(t *testing.T) {
	for _, s := range gemmShapes {
		a := make([]float32, s.m*s.k)
		b := make([]float32, s.k*s.n)
		ref := make([]float32, s.m*s.n)
		got := make([]float32, s.m*s.n)
		fillPattern(a, 1)
		fillPattern(b, 2)
		gemmScalar(s.m, s.n, s.k, a, b, ref)
		gemmParallel(s.m, s.n, s.k, a, b, got)
		assertULP(t, "gemm", got, ref)
	}
}

func TestGemmTransAParallelMatchesScalar(t *testing.T) {
	for _, s := range gemmShapes {
		a := make([]float32, s.k*s.m) // k×m, transposed layout
		b := make([]float32, s.k*s.n)
		ref := make([]float32, s.m*s.n)
		got := make([]float32, s.m*s.n)
		fillPattern(a, 3)
		fillPattern(b, 4)
		gemmTransAScalar(s.m, s.n, s.k, a, b, ref, false)
		gemmTransAParallel(s.m, s.n, s.k, a, b, got, false)
		assertULP(t, "gemmTransA", got, ref)
		// Accumulating form: both kernels fold the products into the C
		// they are handed, in the same per-element order.
		fillPattern(ref, 5)
		copy(got, ref)
		gemmTransAScalar(s.m, s.n, s.k, a, b, ref, true)
		gemmTransAParallel(s.m, s.n, s.k, a, b, got, true)
		assertULP(t, "gemmTransA(acc)", got, ref)
	}
}

// TestMatMulTransAAdd: on a zero dst the accumulating form is bitwise the
// overwriting one (the Dense backward relies on this: its gradient is +0 on
// entry), and on a non-zero dst it adds the product to what was there —
// checked exactly on small integers, where no sum rounds.
func TestMatMulTransAAdd(t *testing.T) {
	for _, s := range gemmShapes {
		a := New(s.k, s.m)
		b := New(s.k, s.n)
		fillPattern(a.Data(), 6)
		fillPattern(b.Data(), 7)
		want := New(s.m, s.n)
		if err := MatMulTransA(a, b, want); err != nil {
			t.Fatal(err)
		}
		got := New(s.m, s.n)
		if err := MatMulTransAAdd(a, b, got); err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(got.Data(), want.Data()) {
			t.Fatalf("MatMulTransAAdd on zero dst %dx%dx%d differs from MatMulTransA", s.m, s.n, s.k)
		}

		for i := range a.Data() {
			a.Data()[i] = float32(i%5 - 2)
		}
		for i := range b.Data() {
			b.Data()[i] = float32(i%3 - 1)
		}
		if err := MatMulTransA(a, b, want); err != nil {
			t.Fatal(err)
		}
		for i := range got.Data() {
			got.Data()[i] = float32(i % 7)
		}
		if err := MatMulTransAAdd(a, b, got); err != nil {
			t.Fatal(err)
		}
		for i, w := range want.Data() {
			if got.Data()[i] != float32(i%7)+w {
				t.Fatalf("MatMulTransAAdd %dx%dx%d [%d] = %v, want %v + %v", s.m, s.n, s.k, i, got.Data()[i], i%7, w)
			}
		}
	}
	if err := MatMulTransAAdd(New(2, 3), New(2, 4), New(4, 3)); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("mismatched dst: got %v, want ErrShapeMismatch", err)
	}
}

func TestGemmTransBParallelMatchesScalar(t *testing.T) {
	for _, s := range gemmShapes {
		a := make([]float32, s.m*s.k)
		b := make([]float32, s.n*s.k) // n×k, transposed layout
		ref := make([]float32, s.m*s.n)
		got := make([]float32, s.m*s.n)
		fillPattern(a, 5)
		fillPattern(b, 6)
		gemmTransBScalar(s.m, s.n, s.k, a, b, ref)
		gemmTransBParallel(s.m, s.n, s.k, a, b, got)
		assertBitwise(t, "gemmTransB", got, ref)
	}
}

// TestMatMulDispatchConsistency drives the public API across the
// scalar/parallel dispatch threshold and checks against the reference.
func TestMatMulDispatchConsistency(t *testing.T) {
	for _, s := range []struct{ m, n, k int }{{5, 6, 7}, {65, 130, 67}} {
		a := New(s.m, s.k)
		b := New(s.k, s.n)
		dst := New(s.m, s.n)
		fillPattern(a.Data(), 7)
		fillPattern(b.Data(), 8)
		ref := make([]float32, s.m*s.n)
		gemmScalar(s.m, s.n, s.k, a.Data(), b.Data(), ref)
		if err := MatMul(a, b, dst); err != nil {
			t.Fatal(err)
		}
		assertULP(t, "MatMul", dst.Data(), ref)
	}
}

// convShapes includes 1×1 images, odd kernels, stride/pad combinations and
// channel counts around the partition edges.
var convShapes = []struct {
	c, h, w int
	p       ConvParams
}{
	{1, 1, 1, ConvParams{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}},
	{1, 5, 7, ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
	{3, 9, 9, ConvParams{KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}},
	{5, 13, 11, ConvParams{KernelH: 5, KernelW: 3, StrideH: 2, StrideW: 1, PadH: 2, PadW: 1}},
	{17, 8, 8, ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
}

func TestIm2ColParallelMatchesScalar(t *testing.T) {
	for _, s := range convShapes {
		oh, ow := s.p.OutSize(s.h, s.w)
		img := make([]float32, s.c*s.h*s.w)
		fillPattern(img, 9)
		ref := make([]float32, s.c*s.p.KernelH*s.p.KernelW*oh*ow)
		got := make([]float32, len(ref))
		im2ColChannels(img, 0, s.c, s.h, s.w, oh, ow, s.p, ref)
		// Force the partitioned path regardless of the size threshold.
		parallel.For(s.c, 1, func(lo, hi int) {
			im2ColChannels(img, lo, hi, s.h, s.w, oh, ow, s.p, got)
		})
		assertULP(t, "im2col", got, ref)
	}
}

func TestCol2ImParallelMatchesScalar(t *testing.T) {
	for _, s := range convShapes {
		oh, ow := s.p.OutSize(s.h, s.w)
		col := make([]float32, s.c*s.p.KernelH*s.p.KernelW*oh*ow)
		fillPattern(col, 10)
		ref := make([]float32, s.c*s.h*s.w)
		got := make([]float32, len(ref))
		col2ImChannels(col, 0, s.c, s.h, s.w, oh, ow, s.p, ref)
		parallel.For(s.c, 1, func(lo, hi int) {
			col2ImChannels(col, lo, hi, s.h, s.w, oh, ow, s.p, got)
		})
		assertULP(t, "col2im", got, ref)
	}
}

// TestFloat32View checks the zero-copy alias against the decode reference
// and that writes through the view land in the backing bytes.
func TestFloat32View(t *testing.T) {
	vals := make([]float32, 33)
	fillPattern(vals, 11)
	buf := Float32Bytes(vals)
	view, ok := Float32View(buf)
	if !ok {
		t.Skip("platform without aligned little-endian fast path")
	}
	assertULP(t, "view", view, vals)
	view[7] = 42
	back, err := Float32FromBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	if back[7] != 42 {
		t.Fatalf("write through view did not reach backing bytes: %v", back[7])
	}
	if _, ok := Float32View(buf[:6]); ok {
		t.Fatal("view of non-multiple-of-4 length must fail")
	}
	if v, ok := Float32View(nil); !ok || len(v) != 0 {
		t.Fatalf("empty view = %v, %v", v, ok)
	}
	if _, ok := Float32View(buf[1:5]); ok && nativeLittleEndian {
		t.Fatal("misaligned view must fail")
	}
}
