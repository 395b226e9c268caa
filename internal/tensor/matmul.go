package tensor

import (
	"fmt"

	"shmcaffe/internal/parallel"
)

// The GEMM family below is one blocked kernel per form that fans output
// rows out across the worker pool when the problem is large enough. Each
// form's scalar reference — the seed's original loops, kept verbatim as
// the ground truth the equivalence tests compare against — lives in the
// test files, since no production path runs it.
//
// Determinism: the parallel kernels split C by rows; every C element is
// produced entirely inside one range, and the k loop always runs 0..k-1 in
// order within a row, so the floating-point accumulation order per element
// is identical to the scalar kernel regardless of pool width or schedule.

const (
	// gemmParallelFlops is the m·n·k threshold below which the rows run
	// inline. Re-measured after the zero-alloc Ranger dispatch: even with
	// allocation-free fan-out, partition + join overhead and the loss of
	// the single-panel cache residency only pay for themselves from ~128³
	// (1<<21) flops upward on 2-4 lanes; 1<<20 keeps a safety margin for
	// wider pools. Every model shape sits below it.
	gemmParallelFlops = 1 << 20
	// gemmBlockK/gemmBlockJ are the row kernel's cache-block edge lengths:
	// a K-panel of B (gemmBlockK rows × gemmBlockJ columns ≈ 256 KiB at
	// float32) stays resident while a range of C rows streams over it.
	gemmBlockK = 256
	gemmBlockJ = 256
	// gemmTileK is the tile path's k-block edge: a 16-column strip of B
	// over 64 rows is 4 KiB, so it stays in L1 while every 4-row tile of
	// the block passes over it. Unblocked, the strip is read at B's row
	// stride and the tile loses to the row kernel once B leaves L2. Swept
	// at 32, 64, 128, 256 and unblocked on a 2-vCPU Xeon (avx2+fma, -cpu
	// 1): 8×1024×1024 ran 563 µs at 64, 859 at 128, 1,103 unblocked and
	// 775 on the row kernel; 64×1024×1024 3.7 ms at 64, 4.5 at 32, 4.2 at
	// 256, 9.1 unblocked. On the model shapes every edge is within noise.
	gemmTileK = 64
	// gemmRowGrain is the minimum C-row count per parallel range.
	gemmRowGrain = 8
)

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

// useParallelGemm is the one fan-out rule of a×b, aᵀ×b and a×bᵀ: enough
// flops to amortise the dispatch, and a pool that actually has more than
// one lane. Below it the rows run inline; on two workers sharing two
// cores a fanned-out model-size gemm only adds the join.
func useParallelGemm(flops int) bool {
	return flops >= gemmParallelFlops && parallel.DefaultWidth() > 1
}

// gemm computes C = A×B with A (m×k), B (k×n), C (m×n), all row-major.
func gemm(m, n, k int, a, b, c []float32) { gemmAB(m, n, k, a, k, 1, b, c, false, true) }

// gemmAB computes C = A×B, or C += A×B with acc, for b (k×n) and c (m×n)
// row-major and A (m×k) read through two strides: A(i,l) = a[i*sa+l*sl].
// (sa, sl) = (k, 1) is a row-major A; (1, m) reads a k×m A as its
// transpose in place. Rows fan out over the pool under useParallelGemm.
// skip lets the row kernel skip zero A values (see gemmTiles): a×b always
// sets it, aᵀ×b only for a finite B.
func gemmAB(m, n, k int, a []float32, sa, sl int, b, c []float32, acc, skip bool) {
	if useParallelGemm(m * n * k) {
		gemmABParallel(m, n, k, a, sa, sl, b, c, acc, skip)
		return
	}
	gemmTiles(m, n, k, a, sa, sl, b, c, acc, skip)
}

// gemmABParallel always partitions C rows over the pool, gemmTiles being
// the range kernel. The operands travel in a pooled Ranger struct so the
// dispatch allocates nothing (see rangers.go).
func gemmABParallel(m, n, k int, a []float32, sa, sl int, b, c []float32, acc, skip bool) {
	g := gemmRangerFree.Get()
	*g = gemmRanger{a: a, b: b, c: c, sa: sa, sl: sl, k: k, n: n, acc: acc, skip: skip}
	parallel.ForRanger(m, gemmRowGrain, g)
	*g = gemmRanger{}
	gemmRangerFree.Put(g)
}

// gemmTiles is the a×b driver (see gemmAB for the operands). With the
// SIMD tile kernel live it walks k-blocks of gemmTileK outermost, then
// 16-column strips, then 4-row tiles, and hands each tile to the kernel,
// which holds it in registers across the block. What no tile covers runs
// on the row kernel: the columns from n&^15 on, the rows from m&^3 on
// (every row when m < 4: a gemv gains nothing from a tile), and all of
// C when k < 4.
//
// Every element lands in exactly one region, and both kernels add its
// products to what C holds in ascending l with a rounding per multiply
// and per add — the blocks are walked in ascending order and the tile
// kernel accumulates. With skip the row kernel skips zero A values and the
// tile adds their ±0, which leaves a C that is not −0 unchanged: C is
// never −0 (it starts at +0 or holds no −0 on entry, and x + y is −0 only
// for two −0 operands). So the result is bitwise gemmScalar's for finite
// B. aᵀ×b clears skip when B is not finite: then both kernels add every
// product, and the sum is the IEEE one on every shape and backend — 0·Inf
// and 0·NaN are NaN everywhere, as in the dense step that forms the same
// weight gradient in registers.
func gemmTiles(m, n, k int, a []float32, sa, sl int, b, c []float32, acc, skip bool) {
	c = c[:m*n]
	if !acc {
		clear(c)
	}
	m4, n16 := m&^3, n&^15
	if gemmTile4x16 == nil || k < 4 || m4 == 0 || n16 == 0 {
		gemmRows(m, n, k, a, sa, sl, b, c, n, skip)
		return
	}
	// The kernel indexes a and b unchecked: pin their last elements.
	_, _ = a[(m-1)*sa+(k-1)*sl], b[k*n-1]
	for kb := 0; kb < k; kb += gemmTileK {
		kl := min(gemmTileK, k-kb)
		for j := 0; j < n16; j += 16 {
			for i := 0; i < m4; i += 4 {
				gemmTile4x16(&a[i*sa+kb*sl], sa, sl, &b[kb*n+j], n, kl, &c[i*n+j], n)
			}
		}
	}
	if n16 < n {
		gemmRows(m4, n-n16, k, a, sa, sl, b[n16:], c[n16:], n, skip)
	}
	if m4 < m {
		gemmRows(m-m4, n, k, a[m4*sa:], sa, sl, b, c[m4*n:], n, skip)
	}
}

// gemmRows is the row kernel: c[i*ld+j] += Σ_l A(i,l)·b[l*ld+j] for
// i < rows, j < w, A(i,l) = a[i*sa+l*sl], cache-blocked over k and j. For
// every (i, j) the k index still increases monotonically across blocks,
// so the accumulation order is the tile kernel's. C is not cleared:
// the products fold into what it holds.
//
// With skip, zero A values are skipped (all-zero quads outright), so the
// ReLU zeros of a batch-1 activation row cost nothing. Without it every
// product is added, as the tile kernel adds it.
func gemmRows(rows, w, k int, a []float32, sa, sl int, b, c []float32, ld int, skip bool) {
	for kb := 0; kb < k; kb += gemmBlockK {
		kend := min(kb+gemmBlockK, k)
		for jb := 0; jb < w; jb += gemmBlockJ {
			jend := min(jb+gemmBlockJ, w)
			for i := 0; i < rows; i++ {
				ai := a[i*sa:]
				crow := c[i*ld+jb : i*ld+jend]
				l := kb
				if gemmInner4 != nil {
					// SIMD quad path: four k-steps per call, A's quad read
					// through its stride. The microkernel accumulates the
					// four products per element in l-order with separate
					// mul+add roundings, the tile kernel's sum.
					for ; l+4 <= kend; l += 4 {
						if skip && ai[l*sl] == 0 && ai[(l+1)*sl] == 0 && ai[(l+2)*sl] == 0 && ai[(l+3)*sl] == 0 {
							continue
						}
						gemmInner4(&ai[l*sl], sl, &b[l*ld+jb], ld, &crow[0], len(crow))
					}
				}
				// Leftover k-steps (all of them at k < 4 — a batch-1 weight
				// gradient is one): each is crow += av·brow, the dispatched
				// axpy, whose per-element c + a·b with two roundings is the
				// tile kernel's expression.
				for ; l < kend; l++ {
					if av := ai[l*sl]; av != 0 || !skip {
						axpyImpl(av, b[l*ld+jb:l*ld+jend], crow)
					}
				}
			}
		}
	}
}

// Gemm computes C = A×B on flat row-major slices: a (m×k), b (k×n),
// c (m×n). Slices must have exactly those lengths. It dispatches exactly
// like MatMul.
func Gemm(m, n, k int, a, b, c []float32) { gemm(m, n, k, a, b, c) }

// MatMulTransA computes dst = aᵀ × b for a (k×m), b (k×n), dst (m×n).
func MatMulTransA(a, b, dst *Tensor) error { return matMulTransA(a, b, dst, false) }

// MatMulTransAAdd computes dst += aᵀ × b for a (k×m), b (k×n), dst (m×n):
// the weight-gradient accumulation of a dense layer, with no aᵀ×b
// temporary and no second pass to add it in. Per element the products
// fold into dst in the same l-order MatMulTransA sums them, so on a dst
// that is zero on entry the two are bitwise-equal.
func MatMulTransAAdd(a, b, dst *Tensor) error { return matMulTransA(a, b, dst, true) }

// matMulTransA runs aᵀ×b as a×b with A read in place through the strides
// (1, m): nothing is packed. A zero a value's product is skipped only for
// a finite b, where it is ±0 and changes no bit of a dst without −0; with
// a non-finite b every product is added, so 0·Inf and 0·NaN are NaN on
// every shape and backend, as in FusedDenseStep.
func matMulTransA(a, b, dst *Tensor, acc bool) error {
	if a.Dims() != 2 || b.Dims() != 2 || dst.Dims() != 2 {
		return fmt.Errorf("tensor: matmulTransA requires 2-D operands: %w", ErrShapeMismatch)
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("tensor: matmulTransA: %w", ErrShapeMismatch)
	}
	gemmAB(m, n, k, a.data, 1, m, b.data, dst.data, acc, allFinite(b.data[:k*n]))
	return nil
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
	if useParallelGemm(m * n * k) {
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
// columns and one 4-step of l, and with gemmTransBTiled otherwise. Column
// blocks walk j outer, so one 8-row block of b stays in L1 while every row
// of A passes over it. The last block overlaps its neighbour (j = n−8): a
// recomputed element is the same dot product in the same order, so it is
// stored with the same bits.
func gemmTransBRows(m, n, k int, a, b, c []float32) {
	if gemmTransB4x8 == nil || n < 8 || k < 4 {
		gemmTransBTiled(m, n, k, a, b, c)
		return
	}
	for j := 0; ; j += 8 {
		j = min(j, n-8)
		gemmTransBCols8(m, n, k, a, b, c, j)
		if j == n-8 {
			break
		}
	}
}

// gemmTransBCols8 computes columns j…j+7 of C = A×Bᵀ (a m×k, b n×k, c m×n;
// n ≥ 8, k ≥ 4, j ≤ n−8) on the microkernel, which transposes bᵀ in
// registers, so nothing is packed. The last 4-row tile overlaps its
// neighbour (i = m−4), with the same bits; rows that no 4-row tile covers
// (m < 4) take the one-row form. The kernel overwrites c with the sum over
// l < k&^3; the k%4 remaining products are added here, per element in
// ascending l, which continues each serial sum exactly where the kernel
// left it.
func gemmTransBCols8(m, n, k int, a, b, c []float32, j int) {
	a, b, c = a[:m*k], b[:n*k], c[:m*n] // the kernel reads and writes inside these
	k4 := k &^ 3
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
	if k4 == k {
		return
	}
	for i := 0; i < m; i++ {
		arow := a[i*k+k4 : (i+1)*k]
		crow := c[i*n+j : i*n+j+8]
		for jj := range crow {
			bjj := b[(j+jj)*k+k4:][:len(arow)]
			s := crow[jj]
			for l, av := range arow {
				s += av * bjj[l]
			}
			crow[jj] = s
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

// allFinite reports whether no element of g is ±Inf or NaN: v − v is +0
// exactly for finite v and NaN otherwise.
func allFinite(g []float32) bool {
	for _, v := range g {
		if v-v != 0 {
			return false
		}
	}
	return true
}
