//go:build amd64 && !noasm

package simd

// Assembly kernel declarations. Callers must check Enabled() first: the
// bodies execute AVX2 unconditionally. Every slice kernel iterates
// min(len(...)) elements — the length clamp, the 8-wide vector loop and
// the scalar tail all live in the assembly (kernels_amd64.s), so the
// tensor dispatcher can store these directly in its function pointers
// with no wrapper between the call site and the vector loop.
//
// Operand-order contract (what makes the non-FMA kernels bitwise-equal
// to the portable Go bodies): each element evaluates the identical
// mul/add/sub expression tree in the identical order, with the scalar
// tail using the VEX scalar forms of the same instructions. Only
// FusedAxpyCopy deviates — it contracts y + alpha*x into one FMA
// rounding (see the package comment and DESIGN.md §14).

// Axpy computes y[i] += alpha*x[i] for i < min(len(x), len(y)).
// y may alias x exactly (same base pointer).
//
//go:noescape
func Axpy(alpha float32, x, y []float32)

// Add computes y[i] += x[i] for i < min(len(x), len(y)); the alpha==1
// axpy fast path and the SMB accumulate add-loop. y may alias x exactly.
//
//go:noescape
func Add(x, y []float32)

// FusedElasticStep computes, per element over the min length:
//
//	d := alpha * (local[i] - global[i]); local[i] -= d; delta[i] = d
//
// delta may alias global exactly (each block loads global before it stores
// delta) but not local (the vector block stores local before delta); local
// and global must not alias each other.
//
//go:noescape
func FusedElasticStep(alpha float32, delta, local, global []float32)

// FusedElasticExchange computes, per element over the min length:
//
//	d := alpha * (local[i] - global[i])
//	local[i] -= d; global[i] += d; delta[i] = d
//
// delta, local and global must be pairwise non-aliasing.
//
//go:noescape
func FusedElasticExchange(alpha float32, delta, local, global []float32)

// FusedAxpyCopy computes dst[i] = fma(alpha, x[i], y[i]) over the min
// length — FMA-contracted, so within 1 ULP of the infinitely precise
// y + alpha*x but not bitwise-equal to the two-rounding portable body.
// dst may alias x or y exactly.
//
//go:noescape
func FusedAxpyCopy(alpha float32, x, y, dst []float32)

// FusedCopyAdd computes, per element over the min length:
//
//	v := x[i]; src[i] = v; dst[i] += v
//
// — the fused WRITE+ACCUMULATE stripe body: the pushed values land in the
// src segment and fold into dst in the same sweep. Pure adds in the same
// element order as copy-then-add, so bitwise-equal to the portable body.
// src and dst must not alias x or each other.
//
//go:noescape
func FusedCopyAdd(x, src, dst []float32)

// FusedMomentumStep computes, per element over the min length, the
// momentum-SGD update with the gradient clamped, consumed and cleared:
//
//	c := min(clip, max(-clip, g[i]))   // VMAXPS/VMINPS, g the second source
//	u := mom*v[i]; vn := u + lr*(c + wd*w[i])
//	w[i] -= vn                         (plain)
//	w[i] -= (1+mom)*vn - u             (nesterov)
//	v[i] = vn; g[i] = +0
//
// clip must be > 0 or +Inf (the tensor wrapper maps "off" to +Inf). With g
// as the second source operand MAXPS/MINPS return it whenever it is NaN, so
// the clamp passes a NaN gradient through exactly as the scalar branches
// do. Separate multiplies and adds, no FMA: bitwise-equal to the portable
// body. w, g and v must not alias one another.
//
//go:noescape
func FusedMomentumStep(lr, mom, wd, clip float32, nesterov bool, w, g, v []float32)

// GemmInner4 is the quad-row gemm microkernel: with a pointing at four
// consecutive A values a0..a3 and b at the first of four B rows spaced
// ldb floats apart, it computes for j < n:
//
//	c[j] += a0*b0[j]; c[j] += a1*b1[j]; c[j] += a2*b2[j]; c[j] += a3*b3[j]
//
// as separate VMULPS/VADDPS per term in that order, which is the exact
// per-element accumulation order of the scalar blocked kernel — bitwise
// equality preserved, no FMA. c must not overlap a or the b rows.
//
//go:noescape
func GemmInner4(a *float32, b *float32, ldb int, c *float32, n int)

// GemmTransB4x8 is the a×bᵀ microkernel: with a at row i of a 4-row
// block and b at row j of an 8-row block, both rows ld floats apart, it
// computes the 4×8 tile
//
//	c[i*ldc+j] = Σ_{l<k} a[i*ld+l] * b[j*ld+l]
//
// for k a positive multiple of 4, each element summed from +0 over
// ascending l with a rounding per multiply and per add — bitwise the
// serial dot product, no FMA. bᵀ is transposed in registers, four l at a
// time, so nothing is packed. c is overwritten, not accumulated into, and
// must not overlap a or b.
//
//go:noescape
func GemmTransB4x8(a, b *float32, ld, k int, c *float32, ldc int)

// GemmTransB1x8 is GemmTransB4x8 for one row of a: c[j] = Σ_{l<k}
// a[l]*b[j*ld+l] for j < 8, in the same order.
//
//go:noescape
func GemmTransB1x8(a, b *float32, ld, k int, c *float32)

// MaskPositive computes dst[i] = x[i] where m[i] > 0 and +0 elsewhere,
// for i < min(len(dst), len(x), len(m)): VCMPPS GT_OQ against zero, then
// VANDPS. The ordered compare is false for ±0 and every NaN and true for
// positive subnormals and +Inf, so the mask is the portable body's. dst
// may alias x or m exactly.
//
//go:noescape
func MaskPositive(dst, x, m []float32)
