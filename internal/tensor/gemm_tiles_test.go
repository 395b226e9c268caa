package tensor

import (
	"fmt"
	"testing"
)

// gemmParallel and gemmTransAParallel force the row fan-out of a×b and
// aᵀ×b whatever the size, for the equivalence, allocation and benchmark
// rows that pin the parallel path.
func gemmParallel(m, n, k int, a, b, c []float32) {
	gemmABParallel(m, n, k, a, k, 1, b, c, false, true)
}

func gemmTransAParallel(m, n, k int, a, b, c []float32, acc bool) {
	gemmABParallel(m, n, k, a, 1, m, b, c, acc, allFinite(b))
}

// gemmScalar is the seed's original kernel: k-outer with a row-broadcast
// inner loop, which keeps accesses sequential. It is the reference the
// blocked kernels must match.
func gemmScalar(m, n, k int, a, b, c []float32) {
	for i := range c {
		c[i] = 0
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for l := 0; l < k; l++ {
			av := arow[l]
			if av == 0 {
				continue
			}
			brow := b[l*n : (l+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// gemmTransAScalar is the seed's original aᵀ×b kernel (reference); acc
// skips the clear, accumulating into C.
func gemmTransAScalar(m, n, k int, a, b, c []float32, acc bool) {
	if !acc {
		clear(c)
	}
	for l := 0; l < k; l++ {
		arow := a[l*m : (l+1)*m]
		brow := b[l*n : (l+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			crow := c[i*n : (i+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// gemmModelShapes are the a×b calls SmallCNN's batch-16 step makes
// (m×n×k): the conv1 and conv2 forward W·COL and the fc1 forward.
var gemmModelShapes = []struct{ m, n, k int }{
	{8, 256, 27},
	{16, 64, 72},
	{16, 64, 256},
}

// transAModelShapes are its aᵀ×b calls: the conv2 dX Wᵀ·G, overwriting,
// and the fc1 dW xᵀ·g, accumulating into the gradient.
var transAModelShapes = []struct {
	m, n, k int
	acc     bool
}{
	{72, 64, 16, false},
	{256, 64, 16, true},
}

// gemmRegions counts, for one m×n×k call, the C elements each part of
// gemmTiles computes: the tile body (and, of it, the elements summed over
// more than one k-block), the rows from m&^3 on, the columns from n&^15
// on above them, and all of C when k < 4. On the portable backend
// everything is the row kernel's and only k < 4 is told apart.
type gemmRegions struct{ tile, multiBlock, rows, cols, smallK int }

func (r *gemmRegions) add(m, n, k int) {
	m4, n16 := m&^3, n&^15
	switch {
	case k < 4:
		r.smallK += m * n
	case gemmTile4x16 == nil || m4 == 0 || n16 == 0:
		r.rows += m * n
	default:
		r.tile += m4 * n16
		if k > gemmTileK {
			r.multiBlock += m4 * n16
		}
		r.cols += m4 * (n - n16)
		r.rows += (m - m4) * n
	}
}

// TestGemmTilesBitwise: the dispatched a×b and aᵀ×b, overwriting and
// accumulating, are bitwise the scalar references on finite data with
// exact zeros in A — over a sweep of m 1–13, n 1–40, k 1–20 that reaches
// every region of gemmTiles (tile body, leftover rows, leftover columns,
// k < 4; k > 16 puts l-steps past the first quad of a block), plus the
// model shapes and 8×1024×1024, whose k spans 16 tile k-blocks.
func TestGemmTilesBitwise(t *testing.T) {
	type shape struct {
		m, n, k int
	}
	var shapes []shape
	for m := 1; m <= 13; m++ {
		for n := 1; n <= 40; n++ {
			for k := 1; k <= 20; k++ {
				shapes = append(shapes, shape{m, n, k})
			}
		}
	}
	for _, s := range gemmModelShapes {
		shapes = append(shapes, shape{s.m, s.n, s.k})
	}
	for _, s := range transAModelShapes {
		shapes = append(shapes, shape{s.m, s.n, s.k})
	}
	shapes = append(shapes, shape{8, 1024, 1024})

	var reg gemmRegions
	for _, s := range shapes {
		m, n, k := s.m, s.n, s.k
		tag := fmt.Sprintf("%dx%dx%d", m, n, k)
		a := make([]float32, m*k) // row-major m×k
		b := make([]float32, k*n)
		fillPattern(a, m+k)
		fillPattern(b, n)
		// A zero quad in every row exercises the row kernel's skip.
		for i := 0; i < m && k >= 8; i++ {
			clear(a[i*k+4 : i*k+8])
		}
		at := make([]float32, k*m) // the same A stored k×m
		for i := 0; i < m; i++ {
			for l := 0; l < k; l++ {
				at[l*m+i] = a[i*k+l]
			}
		}
		c0 := make([]float32, m*n) // what an accumulating call starts from
		fillPattern(c0, 3)

		want := make([]float32, m*n)
		gemmScalar(m, n, k, a, b, want)
		wantAcc := append([]float32(nil), c0...)
		gemmTransAScalar(m, n, k, at, b, wantAcc, true)

		got := make([]float32, m*n)
		fillPattern(got, 9) // an overwriting call must not read C
		Gemm(m, n, k, a, b, got)
		assertBitwise(t, "Gemm "+tag, got, want)
		copy(got, c0)
		gemmAB(m, n, k, a, k, 1, b, got, true, true)
		assertBitwise(t, "a×b acc "+tag, got, wantAcc)

		fillPattern(got, 9)
		if err := MatMulTransA(MustFromSlice(at, k, m), MustFromSlice(b, k, n), MustFromSlice(got, m, n)); err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, "MatMulTransA "+tag, got, want)
		copy(got, c0)
		if err := MatMulTransAAdd(MustFromSlice(at, k, m), MustFromSlice(b, k, n), MustFromSlice(got, m, n)); err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, "MatMulTransAAdd "+tag, got, wantAcc)
		reg.add(m, n, k)
	}
	t.Logf("backend %s, %d shapes × 4 calls; C elements per call: tile %d (more than one k-block %d), leftover rows %d, leftover columns %d, k < 4 %d",
		SimdBackend(), len(shapes), reg.tile, reg.multiBlock, reg.rows, reg.cols, reg.smallK)
	if gemmTile4x16 != nil && (reg.tile == 0 || reg.multiBlock == 0 || reg.rows == 0 || reg.cols == 0 || reg.smallK == 0) {
		t.Fatalf("sweep misses a region: %+v", reg)
	}
}
