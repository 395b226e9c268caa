package tensor

import "math"

// Fused SEASGD sweeps. The worker-side elastic update (Eqs. 5–6) and the
// residual-merge pattern in the nets are pure streaming float math; running
// them as separate passes costs one full traversal of the parameter vector
// per equation. The kernels here fuse the passes and unroll the body eight
// lanes wide, following the pure-Go lane idiom from go-highway: the head of
// each block is reinterpreted as a *[fusedLanes]float32, so the compiler
// proves every lane access in range and drops the per-element bounds checks,
// while the element-by-element order inside the block stays identical to the
// scalar reference. That ordering guarantee is what makes the kernels
// bitwise-equal to the scalar loops, including when dst aliases one of the
// sources (see fused_test.go).
//
// All kernels tolerate mismatched lengths by iterating over the shortest
// operand; callers that want length errors validate first (core.FusedWeightStep).

// fusedLanes is the manual unroll width. Eight float32 lanes are one
// 32-byte block — half a cache line — which is wide enough to hide the
// loop overhead and narrow enough that the tail loop stays cheap.
const fusedLanes = 8

// lanes8 is the block view the unrolled bodies operate on.
type lanes8 = [fusedLanes]float32

// minLen3 returns the shortest of three slice lengths.
func minLen3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// FusedElasticStep performs the worker half of the elastic exchange in one
// sweep (Eqs. 5 and 6 fused):
//
//	delta[i] = alpha * (local[i] - global[i])
//	local[i] -= delta[i]
//
// delta may alias global exactly — the in-place form, which overwrites each
// global element with its increment: every element's global value is read
// before its delta is stored, so the result is the same bits as on disjoint
// operands. delta must not alias local, and local and global must not alias
// each other. Each element is fully computed and stored before the next, so
// the result is bitwise-identical to running Eq. 5 and then Eq. 6 as two
// passes on disjoint operands — on both the portable and the
// SIMD backend (the AVX2 kernel evaluates the identical expression tree
// per element; see internal/tensor/simd).
//
//shm:hotpath
func FusedElasticStep(alpha float32, delta, local, global []float32) {
	fusedElasticStepImpl(alpha, delta, local, global)
}

// fusedElasticStepUnrolled is the portable FusedElasticStep kernel and
// the dispatch default.
func fusedElasticStepUnrolled(alpha float32, delta, local, global []float32) {
	n := minLen3(len(delta), len(local), len(global))
	i := 0
	for ; i+fusedLanes <= n; i += fusedLanes {
		d := (*lanes8)(delta[i:])
		l := (*lanes8)(local[i:])
		g := (*lanes8)(global[i:])
		// Per element: update l while its value is still in a register,
		// then store d. Storing d first would force the compiler to
		// reload l (it cannot prove delta does not alias local), adding a
		// load and a store-forward stall per element.
		d0 := alpha * (l[0] - g[0])
		l[0] -= d0
		d[0] = d0
		d1 := alpha * (l[1] - g[1])
		l[1] -= d1
		d[1] = d1
		d2 := alpha * (l[2] - g[2])
		l[2] -= d2
		d[2] = d2
		d3 := alpha * (l[3] - g[3])
		l[3] -= d3
		d[3] = d3
		d4 := alpha * (l[4] - g[4])
		l[4] -= d4
		d[4] = d4
		d5 := alpha * (l[5] - g[5])
		l[5] -= d5
		d[5] = d5
		d6 := alpha * (l[6] - g[6])
		l[6] -= d6
		d[6] = d6
		d7 := alpha * (l[7] - g[7])
		l[7] -= d7
		d[7] = d7
	}
	for ; i < n; i++ {
		dv := alpha * (local[i] - global[i])
		local[i] -= dv
		delta[i] = dv
	}
}

// fusedElasticStepScalar is the scalar reference for FusedElasticStep; the
// equivalence tests and benchmarks pin the unrolled body against it. The
// per-element store order (local, then delta) matches the unrolled body so
// the two agree bit for bit even on aliased operands.
func fusedElasticStepScalar(alpha float32, delta, local, global []float32) {
	n := minLen3(len(delta), len(local), len(global))
	for i := 0; i < n; i++ {
		dv := alpha * (local[i] - global[i])
		local[i] -= dv
		delta[i] = dv
	}
}

// FusedElasticExchange performs the complete Eq. 5–7 exchange against
// in-memory buffers in one sweep:
//
//	delta = alpha * (local - global);  local -= delta;  global += delta
//
// delta, local and global must be pairwise non-aliasing. This is the fused
// form of core.ElasticExchange, used by the in-process parameter server
// where the global vector lives in the same address space.
//
//shm:hotpath
func FusedElasticExchange(alpha float32, delta, local, global []float32) {
	fusedElasticExchangeImpl(alpha, delta, local, global)
}

// fusedElasticExchangeUnrolled is the portable FusedElasticExchange
// kernel and the dispatch default.
func fusedElasticExchangeUnrolled(alpha float32, delta, local, global []float32) {
	n := minLen3(len(delta), len(local), len(global))
	i := 0
	for ; i+fusedLanes <= n; i += fusedLanes {
		d := (*lanes8)(delta[i:])
		l := (*lanes8)(local[i:])
		g := (*lanes8)(global[i:])
		// Same store order as FusedElasticStep: both l and g are updated
		// from register-resident values before the d store, which the
		// compiler would otherwise have to assume clobbers them.
		d0 := alpha * (l[0] - g[0])
		l[0] -= d0
		g[0] += d0
		d[0] = d0
		d1 := alpha * (l[1] - g[1])
		l[1] -= d1
		g[1] += d1
		d[1] = d1
		d2 := alpha * (l[2] - g[2])
		l[2] -= d2
		g[2] += d2
		d[2] = d2
		d3 := alpha * (l[3] - g[3])
		l[3] -= d3
		g[3] += d3
		d[3] = d3
		d4 := alpha * (l[4] - g[4])
		l[4] -= d4
		g[4] += d4
		d[4] = d4
		d5 := alpha * (l[5] - g[5])
		l[5] -= d5
		g[5] += d5
		d[5] = d5
		d6 := alpha * (l[6] - g[6])
		l[6] -= d6
		g[6] += d6
		d[6] = d6
		d7 := alpha * (l[7] - g[7])
		l[7] -= d7
		g[7] += d7
		d[7] = d7
	}
	for ; i < n; i++ {
		dv := alpha * (local[i] - global[i])
		local[i] -= dv
		global[i] += dv
		delta[i] = dv
	}
}

// fusedElasticExchangeScalar is the scalar reference for FusedElasticExchange,
// with the same per-element store order as the unrolled body.
func fusedElasticExchangeScalar(alpha float32, delta, local, global []float32) {
	n := minLen3(len(delta), len(local), len(global))
	for i := 0; i < n; i++ {
		dv := alpha * (local[i] - global[i])
		local[i] -= dv
		global[i] += dv
		delta[i] = dv
	}
}

// FusedAxpyCopy computes dst[i] = y[i] + alpha*x[i] in one sweep, fusing the
// clone-then-axpy pattern (dst := y.Clone(); Axpy(alpha, x, dst)) into a
// single traversal with no intermediate copy. dst may alias y or x exactly
// (same backing array and offset): each element is read and written before
// the next. Partially overlapping views are not supported.
//
// Numerical policy: this is the one dispatched kernel that is NOT
// bitwise-identical across backends. The AVX2 backend contracts the
// multiply-add into a single FMA rounding, so results are correctly
// rounded (within 1 ULP of the exact y + alpha*x, and at most 1 ULP from
// the portable two-rounding body). With alpha == ±1 or either operand
// zero the contraction is exact and the backends agree bit for bit —
// which covers every current production call site (compose/dense use
// alpha=1). Runs needing cross-backend bitwise reproducibility at other
// alphas set SHMCAFFE_NOSIMD. See DESIGN.md §14.
//
//shm:hotpath
func FusedAxpyCopy(alpha float32, x, y, dst []float32) {
	fusedAxpyCopyImpl(alpha, x, y, dst)
}

// fusedAxpyCopyUnrolled is the portable FusedAxpyCopy kernel and the
// dispatch default: two roundings per element (mul, then add), which is
// the reference the bitwise tests pin when the SIMD backend is off.
func fusedAxpyCopyUnrolled(alpha float32, x, y, dst []float32) {
	n := minLen3(len(x), len(y), len(dst))
	i := 0
	for ; i+fusedLanes <= n; i += fusedLanes {
		xv := (*lanes8)(x[i:])
		yv := (*lanes8)(y[i:])
		dv := (*lanes8)(dst[i:])
		dv[0] = yv[0] + alpha*xv[0]
		dv[1] = yv[1] + alpha*xv[1]
		dv[2] = yv[2] + alpha*xv[2]
		dv[3] = yv[3] + alpha*xv[3]
		dv[4] = yv[4] + alpha*xv[4]
		dv[5] = yv[5] + alpha*xv[5]
		dv[6] = yv[6] + alpha*xv[6]
		dv[7] = yv[7] + alpha*xv[7]
	}
	for ; i < n; i++ {
		dst[i] = y[i] + alpha*x[i]
	}
}

// fusedAxpyCopyScalar is the scalar reference for FusedAxpyCopy.
func fusedAxpyCopyScalar(alpha float32, x, y, dst []float32) {
	n := minLen3(len(x), len(y), len(dst))
	for i := 0; i < n; i++ {
		dst[i] = y[i] + alpha*x[i]
	}
}

// FusedCopyAdd performs the fused WRITE+ACCUMULATE data plane in one sweep
// over the pushed values:
//
//	v := x[i]; src[i] = v; dst[i] += v
//
// The increment lands in the src segment (the WRITE half) and folds into
// dst (the ACCUMULATE half) without the separate copy pass re-reading src.
// Pure adds, no contraction, element order identical to copy-then-add — so
// the SIMD and portable backends are bitwise-identical and the fusion is
// invisible to readers. src and dst must not alias x or each other.
//
//shm:hotpath
func FusedCopyAdd(x, src, dst []float32) {
	fusedCopyAddImpl(x, src, dst)
}

// fusedCopyAddUnrolled is the portable FusedCopyAdd kernel and the
// dispatch default.
func fusedCopyAddUnrolled(x, src, dst []float32) {
	n := minLen3(len(x), len(src), len(dst))
	i := 0
	for ; i+fusedLanes <= n; i += fusedLanes {
		xv := (*lanes8)(x[i:])
		sv := (*lanes8)(src[i:])
		dv := (*lanes8)(dst[i:])
		sv[0] = xv[0]
		dv[0] = dv[0] + xv[0]
		sv[1] = xv[1]
		dv[1] = dv[1] + xv[1]
		sv[2] = xv[2]
		dv[2] = dv[2] + xv[2]
		sv[3] = xv[3]
		dv[3] = dv[3] + xv[3]
		sv[4] = xv[4]
		dv[4] = dv[4] + xv[4]
		sv[5] = xv[5]
		dv[5] = dv[5] + xv[5]
		sv[6] = xv[6]
		dv[6] = dv[6] + xv[6]
		sv[7] = xv[7]
		dv[7] = dv[7] + xv[7]
	}
	for ; i < n; i++ {
		v := x[i]
		src[i] = v
		dst[i] = dst[i] + v
	}
}

// fusedCopyAddScalar is the scalar reference for FusedCopyAdd.
func fusedCopyAddScalar(x, src, dst []float32) {
	n := minLen3(len(x), len(src), len(dst))
	for i := 0; i < n; i++ {
		v := x[i]
		src[i] = v
		dst[i] = dst[i] + v
	}
}

// FusedMomentumStep is Caffe's momentum-SGD update (Eq. 2) for one
// parameter blob in one sweep over w, g and v:
//
//	g' := clamp(g[i], -clip, clip)
//	v[i] = mom*v[i] + lr*(g' + wd*w[i])
//	w[i] -= v[i]                          (plain)
//	w[i] -= (1+mom)*v[i] - mom*v_old      (nesterov)
//	g[i] = +0
//
// The gradient is consumed: it is written back as +0, so the next backward
// pass accumulates into a cleared buffer without a separate zeroing sweep.
// clip ≤ 0 (or NaN) disables clipping. The clamp lets a NaN gradient
// through unchanged, like the two-branch scalar clip it replaces. Separate
// multiplies and adds in the scalar order, no contraction, so every
// backend is bitwise-identical to fusedMomentumStepScalar — NaN, ±Inf and
// −0 included. w, g and v must not alias one another.
//
//shm:hotpath
func FusedMomentumStep(lr, mom, wd, clip float32, nesterov bool, w, g, v []float32) {
	if !(clip > 0) {
		clip = float32(math.Inf(1)) // the clamp is then the identity, bit for bit
	}
	fusedMomentumStepImpl(lr, mom, wd, clip, nesterov, w, g, v)
}

// fusedMomentumStepUnrolled is the portable FusedMomentumStep kernel and
// the dispatch default; clip is already normalised (> 0 or +Inf).
func fusedMomentumStepUnrolled(lr, mom, wd, clip float32, nesterov bool, w, g, v []float32) {
	n := minLen3(len(w), len(g), len(v))
	nclip, mom1 := -clip, 1+mom
	i := 0
	for ; i+fusedLanes <= n; i += fusedLanes {
		wv := (*lanes8)(w[i:])
		gv := (*lanes8)(g[i:])
		vv := (*lanes8)(v[i:])
		for k := range wv {
			gk := gv[k]
			if gk > clip {
				gk = clip
			} else if gk < nclip {
				gk = nclip
			}
			prev := vv[k]
			vk := mom*prev + lr*(gk+wd*wv[k])
			if nesterov {
				wv[k] -= mom1*vk - mom*prev
			} else {
				wv[k] -= vk
			}
			vv[k] = vk
			gv[k] = 0
		}
	}
	for ; i < n; i++ {
		gk := g[i]
		if gk > clip {
			gk = clip
		} else if gk < nclip {
			gk = nclip
		}
		prev := v[i]
		vk := mom*prev + lr*(gk+wd*w[i])
		if nesterov {
			w[i] -= mom1*vk - mom*prev
		} else {
			w[i] -= vk
		}
		v[i] = vk
		g[i] = 0
	}
}

// fusedMomentumStepScalar is the reference FusedMomentumStep is pinned
// against: the solver's former three passes verbatim — clamp the gradient
// in place, the momentum loop, then clear the gradient.
func fusedMomentumStepScalar(lr, mom, wd, clip float32, nesterov bool, w, g, v []float32) {
	n := minLen3(len(w), len(g), len(v))
	w, g, v = w[:n], g[:n], v[:n]
	if clip > 0 {
		for i, x := range g {
			if x > clip {
				g[i] = clip
			} else if x < -clip {
				g[i] = -clip
			}
		}
	}
	if nesterov {
		for j := range v {
			prev := v[j]
			v[j] = mom*v[j] + lr*(g[j]+wd*w[j])
			w[j] -= (1+mom)*v[j] - mom*prev
		}
	} else {
		for j := range v {
			v[j] = mom*v[j] + lr*(g[j]+wd*w[j])
			w[j] -= v[j]
		}
	}
	for j := range g {
		g[j] = 0
	}
}
