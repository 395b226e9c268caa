package tensor

import (
	"fmt"

	"shmcaffe/internal/parallel"
)

// The GEMM family below has two implementations each: a scalar reference
// kernel (the seed's original loops, kept verbatim as the ground truth the
// equivalence tests compare against; a×bᵀ's lives in transb_test.go, since
// no production path runs it) and a cache-blocked parallel kernel that
// partitions output rows across the worker pool. Dispatch picks the
// parallel path only when the problem carries enough flops to amortise it.
//
// Determinism: the parallel kernels split C by rows; every C element is
// produced entirely inside one range, and the k loop always runs 0..k-1 in
// order within a row, so the floating-point accumulation order per element
// is identical to the scalar kernel regardless of pool width or schedule.

const (
	// gemmParallelFlops is the m·n·k threshold below which the scalar
	// kernel wins. Re-measured after the zero-alloc Ranger dispatch: even
	// with allocation-free fan-out, partition + join overhead and the loss
	// of the single-panel cache residency only pay for themselves from
	// ~128³ (1<<21) flops upward on 2-4 lanes; 1<<20 keeps a safety margin
	// for wider pools while never selecting parallel where the scalar
	// kernel wins (BenchmarkGemm's 64³ size, which regressed under the old
	// 1<<18 threshold, now stays scalar).
	gemmParallelFlops = 1 << 20
	// gemmBlockK/gemmBlockJ are the cache-block edge lengths: a K-panel of
	// B (gemmBlockK rows × gemmBlockJ columns ≈ 256 KiB at float32) stays
	// resident while a range of C rows streams over it.
	gemmBlockK = 256
	gemmBlockJ = 256
	// gemmRowGrain is the minimum C-row count per parallel range.
	gemmRowGrain = 8
	// gemmSimdPackFlops is the m·n·k threshold for the transposed-A path
	// when the SIMD microkernel is live: the blocked kernel then beats the
	// scalar reference from ~16³ up at every pool width (measured on
	// avx2+fma at widths 1 and 4), but below that the per-range pack of
	// the aᵀ strip costs more than the microkernel recovers.
	gemmSimdPackFlops = 1 << 12
)

// packFree recycles the scratch panels the transposed-A path packs its
// strips of aᵀ into (a Freelist so panels survive GC; see
// parallel.Freelist).
var packFree = parallel.NewFreelist[[]float32](8)

func getPack(n int) ([]float32, *[]float32) {
	p := packFree.Get()
	if cap(*p) < n {
		*p = make([]float32, n)
	}
	return (*p)[:n], p
}

func putPack(p *[]float32) { packFree.Put(p) }

// MatMul computes dst = a × b for 2-D tensors: a is (m×k), b is (k×n),
// dst is (m×n). dst must be preallocated; it is overwritten.
func MatMul(a, b, dst *Tensor) error {
	if a.Dims() != 2 || b.Dims() != 2 || dst.Dims() != 2 {
		return fmt.Errorf("tensor: matmul requires 2-D operands: %w", ErrShapeMismatch)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("tensor: matmul (%dx%d)x(%dx%d)->(%dx%d): %w",
			m, k, k2, n, dst.shape[0], dst.shape[1], ErrShapeMismatch)
	}
	gemm(m, n, k, a.data, b.data, dst.data)
	return nil
}

// useParallelGemm reports whether the blocked parallel kernel should run
// for a plain gemm. With the SIMD microkernel live the blocked kernel
// wins at every measured size and pool width — 2.6–7.5x from 8³ to 128³
// at widths 1 and 4 — so it is unconditional; tiny problems stay a single
// inline range anyway (gemmRowGrain caps the partition). On the portable
// backend the old rule holds: enough flops to amortise dispatch, and a
// pool that actually has more than one lane (on a single-core machine the
// portable blocked kernel can only lose to the scalar reference).
func useParallelGemm(flops int) bool {
	if gemmInner4 != nil {
		return true
	}
	return flops >= gemmParallelFlops && parallel.DefaultWidth() > 1
}

// useParallelTransA is useParallelGemm for the aᵀ×b path, which pays an
// extra per-range pack of the A strip: with SIMD the crossover sits near
// 16³ flops instead of zero.
func useParallelTransA(flops int) bool {
	if gemmInner4 != nil {
		return flops >= gemmSimdPackFlops
	}
	return flops >= gemmParallelFlops && parallel.DefaultWidth() > 1
}

// useParallelTransB is useParallelGemm for a×bᵀ, whose range kernel is
// gemmTransBRows. The portable rule applies on every backend: the model
// shapes stay below it or are a single row (the batch-1 dX), so only the
// large shapes of the tests and benchmarks fan out.
func useParallelTransB(flops int) bool {
	return flops >= gemmParallelFlops && parallel.DefaultWidth() > 1
}

// gemm computes C = A×B with A (m×k), B (k×n), C (m×n), all row-major,
// choosing between the scalar reference and the blocked parallel kernel.
func gemm(m, n, k int, a, b, c []float32) {
	if !useParallelGemm(m * n * k) {
		gemmScalar(m, n, k, a, b, c)
		return
	}
	gemmParallel(m, n, k, a, b, c)
}

// gemmParallel always takes the blocked parallel path (exported to the
// equivalence tests through the package boundary of a _test file). The
// operands travel in a pooled Ranger struct so the dispatch allocates
// nothing (see rangers.go).
func gemmParallel(m, n, k int, a, b, c []float32) {
	g := gemmRangerFree.Get()
	*g = gemmRanger{a: a, b: b, c: c, k: k, n: n}
	parallel.ForRanger(m, gemmRowGrain, g)
	*g = gemmRanger{}
	gemmRangerFree.Put(g)
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

// gemmRows computes rows of C for a row-major A panel (rows×k), full B
// (k×n) and C panel (rows×n), cache-blocked over k and j. For every (i, j)
// the k index still increases monotonically across blocks, so the
// accumulation order matches gemmScalar exactly. With acc set the panel is
// not cleared first: C += A×B, the products folding into what C holds in
// the same l-order.
func gemmRows(aRows, b, cRows []float32, rows, k, n int, acc bool) {
	if !acc {
		clear(cRows)
	}
	for kb := 0; kb < k; kb += gemmBlockK {
		kend := kb + gemmBlockK
		if kend > k {
			kend = k
		}
		for jb := 0; jb < n; jb += gemmBlockJ {
			jend := jb + gemmBlockJ
			if jend > n {
				jend = n
			}
			for i := 0; i < rows; i++ {
				arow := aRows[i*k+kb : i*k+kend]
				crow := cRows[i*n+jb : i*n+jend]
				l := 0
				if gemmInner4 != nil {
					// SIMD quad path: four k-steps per call. The microkernel
					// accumulates the four products per element in l-order
					// with separate mul+add roundings, so the result stays
					// bitwise-equal to the scalar kernel for finite B. A
					// zero A lane contributes ±0 instead of being skipped,
					// which is also bitwise-neutral on finite data (c is
					// never -0 mid-accumulation, nor on entry when acc
					// folds into a cleared gradient); all-zero quads are
					// skipped outright for the sparse case.
					for ; l+4 <= len(arow); l += 4 {
						if arow[l] == 0 && arow[l+1] == 0 && arow[l+2] == 0 && arow[l+3] == 0 {
							continue
						}
						gemmInner4(&arow[l], &b[(kb+l)*n+jb], n, &crow[0], len(crow))
					}
				}
				// Leftover k-steps (all of them at k < 4 — a batch-1 weight
				// gradient is one): each is crow += av·brow, the dispatched
				// axpy, whose per-element c + a·b with two roundings is the
				// scalar kernel's expression.
				for ; l < len(arow); l++ {
					if av := arow[l]; av != 0 {
						axpyImpl(av, b[(kb+l)*n+jb:(kb+l)*n+jend], crow)
					}
				}
			}
		}
	}
}

// Gemm computes C = A×B on flat row-major slices: a (m×k), b (k×n),
// c (m×n). Slices must have exactly those lengths. It dispatches exactly
// like MatMul; BenchmarkGemm pins the scalar and parallel kernels apart.
func Gemm(m, n, k int, a, b, c []float32) { gemm(m, n, k, a, b, c) }

// MatMulTransA computes dst = aᵀ × b for a (k×m), b (k×n), dst (m×n).
func MatMulTransA(a, b, dst *Tensor) error { return matMulTransA(a, b, dst, false) }

// MatMulTransAAdd computes dst += aᵀ × b for a (k×m), b (k×n), dst (m×n):
// the weight-gradient accumulation of a dense layer, with no aᵀ×b
// temporary and no second pass to add it in. Per element the products
// fold into dst in the same l-order MatMulTransA sums them, so on a dst
// that is zero on entry the two are bitwise-equal.
func MatMulTransAAdd(a, b, dst *Tensor) error { return matMulTransA(a, b, dst, true) }

func matMulTransA(a, b, dst *Tensor, acc bool) error {
	if a.Dims() != 2 || b.Dims() != 2 || dst.Dims() != 2 {
		return fmt.Errorf("tensor: matmulTransA requires 2-D operands: %w", ErrShapeMismatch)
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("tensor: matmulTransA: %w", ErrShapeMismatch)
	}
	if !useParallelTransA(m * n * k) {
		gemmTransAScalar(m, n, k, a.data, b.data, dst.data, acc)
		return nil
	}
	gemmTransAParallel(m, n, k, a.data, b.data, dst.data, acc)
	return nil
}

// gemmTransAParallel partitions C rows; each range packs its strip of aᵀ
// (rows lo..hi of the logical m×k matrix, read column-wise from a) into a
// contiguous pooled panel so the row kernel streams it like plain gemm.
// acc keeps C's contents and adds into them (see gemmRows).
func gemmTransAParallel(m, n, k int, a, b, c []float32, acc bool) {
	g := transARangerFree.Get()
	*g = transARanger{a: a, b: b, c: c, m: m, k: k, n: n, acc: acc}
	parallel.ForRanger(m, gemmRowGrain, g)
	*g = transARanger{}
	transARangerFree.Put(g)
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

// MatMulTransB computes dst = a × bᵀ for a (m×k), b (n×k), dst (m×n).
// Every element is the reference dot product: summed from +0 over l
// ascending, one rounding per multiply and per add, so the result is
// bitwise the reference on every backend — −0, subnormals, Inf and NaN
// included (DESIGN.md §14.3).
func MatMulTransB(a, b, dst *Tensor) error {
	if a.Dims() != 2 || b.Dims() != 2 || dst.Dims() != 2 {
		return fmt.Errorf("tensor: matmulTransB requires 2-D operands: %w", ErrShapeMismatch)
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("tensor: matmulTransB: %w", ErrShapeMismatch)
	}
	gemmTransB(m, n, k, a.data, b.data, dst.data)
	return nil
}

// gemmTransB computes C = A×Bᵀ on raw slices, fanning rows out over the
// pool when the problem is large enough.
func gemmTransB(m, n, k int, a, b, c []float32) {
	if useParallelTransB(m * n * k) {
		gemmTransBParallel(m, n, k, a, b, c)
		return
	}
	gemmTransBRows(m, n, k, a, b, c)
}

// gemmTransBParallel partitions C rows; both operands already stream
// row-contiguously, so gemmTransBRows doubles as the range kernel.
func gemmTransBParallel(m, n, k int, a, b, c []float32) {
	g := transBRangerFree.Get()
	*g = transBRanger{a: a, b: b, c: c, k: k, n: n}
	parallel.ForRanger(m, gemmRowGrain, g)
	*g = transBRanger{}
	transBRangerFree.Put(g)
}

// gemmTransBRows computes C = A×Bᵀ for a (m×k), b (n×k), c (m×n) with the
// SIMD microkernel when it is live and the shape fills its 4×8 tile's
// columns and one 4-step of l, and with gemmTransBTiled otherwise.
//
// The kernel transposes bᵀ in registers, so nothing is packed. Tiles walk
// j outer, so one 8-row block of b stays in L1 while every row of A passes
// over it. The last tile of each dimension overlaps its neighbour (j =
// n−8, i = m−4): a recomputed element is the same dot product in the same
// order, so it is stored with the same bits. Rows that no 4-row tile
// covers (m < 4) take the one-row form. The kernel sums l < k&^3; the
// k%4 remaining products are added here, per element in ascending l,
// which continues each serial sum exactly where the kernel left it.
func gemmTransBRows(m, n, k int, a, b, c []float32) {
	if gemmTransB4x8 == nil || n < 8 || k < 4 {
		gemmTransBTiled(m, n, k, a, b, c)
		return
	}
	a, b, c = a[:m*k], b[:n*k], c[:m*n] // the kernel reads and writes inside these
	k4 := k &^ 3
	for j := 0; ; j += 8 {
		j = min(j, n-8)
		bj := &b[j*k]
		if m < 4 {
			for i := 0; i < m; i++ {
				gemmTransB1x8(&a[i*k], bj, k, k4, &c[i*n+j])
			}
		} else {
			for i := 0; ; i += 4 {
				i = min(i, m-4)
				gemmTransB4x8(&a[i*k], bj, k, k4, &c[i*n+j], n)
				if i == m-4 {
					break
				}
			}
		}
		if j == n-8 {
			break
		}
	}
	if k4 == k {
		return
	}
	for i := 0; i < m; i++ {
		arow := a[i*k+k4 : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for j := range crow {
			bj := b[j*k+k4:][:len(arow)]
			s := crow[j]
			for l, av := range arow {
				s += av * bj[l]
			}
			crow[j] = s
		}
	}
}

// gemmTransBTiled computes C = A×Bᵀ for a (m×k), b (n×k), c (m×n), four
// output columns per pass over a row of A, each in its own accumulator:
// the four add chains are independent, so they overlap instead of one
// chain running at add latency. Each accumulator still starts at +0 and
// takes its products in ascending l, so every element is bitwise the
// serial dot product — −0, subnormals, Inf and NaN included. It is the
// portable backend's a×bᵀ and the SIMD backend's fallback for shapes
// narrower than the microkernel's tile.
func gemmTransBTiled(m, n, k int, a, b, c []float32) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			// Reslicing to len(arow) lets the compiler drop the bounds
			// checks in the l loop.
			b0 := b[j*k:][:len(arow)]
			b1 := b[(j+1)*k:][:len(arow)]
			b2 := b[(j+2)*k:][:len(arow)]
			b3 := b[(j+3)*k:][:len(arow)]
			var s0, s1, s2, s3 float32
			for l, av := range arow {
				s0 += av * b0[l]
				s1 += av * b1[l]
				s2 += av * b2[l]
				s3 += av * b3[l]
			}
			crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			bj := b[j*k:][:len(arow)]
			var s float32
			for l, av := range arow {
				s += av * bj[l]
			}
			crow[j] = s
		}
	}
}
