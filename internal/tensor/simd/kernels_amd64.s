//go:build amd64 && !noasm

#include "textflag.h"

// AVX2/FMA float32 kernels. Shared conventions:
//
//   - Element count CX = min of the operand lengths, clamped up front, so
//     the Go side never pre-validates; BX is the running element index.
//   - Main loops are 8 or 16 elements per iteration of unaligned 32-byte
//     VMOVUPS (the target cores take no penalty on unaligned YMM access
//     that doesn't split cache lines, and the streams are float32-aligned
//     at worst); the tail runs the same expression with VEX scalar ops
//     (VMOVSS/VMULSS/...), never legacy SSE, to avoid AVX transition
//     stalls before the final VZEROUPPER.
//   - Arithmetic operand order mirrors the portable Go kernels term by
//     term: dst = src1 op src2 with src1 holding the value the Go
//     expression names first, so rounding AND two-NaN propagation match
//     the scalar reference bit for bit. FusedAxpyCopy alone contracts
//     its multiply-add (VFMADD231) and trades bitwise equality for
//     correctly-rounded results.

// func Axpy(alpha float32, x, y []float32)
//
// y[i] += alpha*x[i]. 32 elements per main iteration on four independent
// YMM chains; y may alias x exactly (every load of an element precedes
// the store to it within the block).
TEXT ·Axpy(SB), NOSPLIT, $0-56
	MOVQ x_len+16(FP), CX
	MOVQ y_len+40(FP), DX
	CMPQ DX, CX
	JGE  axpy_min
	MOVQ DX, CX

axpy_min:
	MOVQ         x_base+8(FP), SI
	MOVQ         y_base+32(FP), DI
	VBROADCASTSS alpha+0(FP), Y0
	XORQ         BX, BX
	MOVQ         CX, DX
	ANDQ         $-32, DX
	CMPQ         BX, DX
	JGE          axpy_blk8

axpy_loop32:
	VMOVUPS (SI)(BX*4), Y1
	VMOVUPS 32(SI)(BX*4), Y2
	VMOVUPS 64(SI)(BX*4), Y3
	VMOVUPS 96(SI)(BX*4), Y4
	VMULPS  Y1, Y0, Y1
	VMULPS  Y2, Y0, Y2
	VMULPS  Y3, Y0, Y3
	VMULPS  Y4, Y0, Y4
	VADDPS  (DI)(BX*4), Y1, Y1
	VADDPS  32(DI)(BX*4), Y2, Y2
	VADDPS  64(DI)(BX*4), Y3, Y3
	VADDPS  96(DI)(BX*4), Y4, Y4
	VMOVUPS Y1, (DI)(BX*4)
	VMOVUPS Y2, 32(DI)(BX*4)
	VMOVUPS Y3, 64(DI)(BX*4)
	VMOVUPS Y4, 96(DI)(BX*4)
	ADDQ    $32, BX
	CMPQ    BX, DX
	JLT     axpy_loop32

axpy_blk8:
	MOVQ CX, DX
	ANDQ $-8, DX
	CMPQ BX, DX
	JGE  axpy_tail

axpy_loop8:
	VMOVUPS (SI)(BX*4), Y1
	VMULPS  Y1, Y0, Y1
	VADDPS  (DI)(BX*4), Y1, Y1
	VMOVUPS Y1, (DI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, DX
	JLT     axpy_loop8

axpy_tail:
	CMPQ BX, CX
	JGE  axpy_done

axpy_tail_loop:
	VMOVSS (SI)(BX*4), X1
	VMULSS X1, X0, X1
	VADDSS (DI)(BX*4), X1, X1
	VMOVSS X1, (DI)(BX*4)
	INCQ   BX
	CMPQ   BX, CX
	JLT    axpy_tail_loop

axpy_done:
	VZEROUPPER
	RET

// func Add(x, y []float32)
//
// y[i] += x[i] — the alpha==1 axpy fast path and the SMB accumulate
// inner loop. y may alias x exactly.
TEXT ·Add(SB), NOSPLIT, $0-48
	MOVQ x_len+8(FP), CX
	MOVQ y_len+32(FP), DX
	CMPQ DX, CX
	JGE  add_min
	MOVQ DX, CX

add_min:
	MOVQ x_base+0(FP), SI
	MOVQ y_base+24(FP), DI
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-32, DX
	CMPQ BX, DX
	JGE  add_blk8

add_loop32:
	VMOVUPS (DI)(BX*4), Y1
	VMOVUPS 32(DI)(BX*4), Y2
	VMOVUPS 64(DI)(BX*4), Y3
	VMOVUPS 96(DI)(BX*4), Y4
	VADDPS  (SI)(BX*4), Y1, Y1
	VADDPS  32(SI)(BX*4), Y2, Y2
	VADDPS  64(SI)(BX*4), Y3, Y3
	VADDPS  96(SI)(BX*4), Y4, Y4
	VMOVUPS Y1, (DI)(BX*4)
	VMOVUPS Y2, 32(DI)(BX*4)
	VMOVUPS Y3, 64(DI)(BX*4)
	VMOVUPS Y4, 96(DI)(BX*4)
	ADDQ    $32, BX
	CMPQ    BX, DX
	JLT     add_loop32

add_blk8:
	MOVQ CX, DX
	ANDQ $-8, DX
	CMPQ BX, DX
	JGE  add_tail

add_loop8:
	VMOVUPS (DI)(BX*4), Y1
	VADDPS  (SI)(BX*4), Y1, Y1
	VMOVUPS Y1, (DI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, DX
	JLT     add_loop8

add_tail:
	CMPQ BX, CX
	JGE  add_done

add_tail_loop:
	VMOVSS (DI)(BX*4), X1
	VADDSS (SI)(BX*4), X1, X1
	VMOVSS X1, (DI)(BX*4)
	INCQ   BX
	CMPQ   BX, CX
	JLT    add_tail_loop

add_done:
	VZEROUPPER
	RET

// func FusedElasticStep(alpha float32, delta, local, global []float32)
//
// d := alpha*(local[i]-global[i]); local[i] -= d; delta[i] = d.
// 16 elements per main iteration on two independent chains. delta may
// alias global exactly (every block loads global before it stores delta)
// but not local (local stores land before delta stores within a block);
// local and global must not alias each other.
TEXT ·FusedElasticStep(SB), NOSPLIT, $0-80
	MOVQ delta_len+16(FP), CX
	MOVQ local_len+40(FP), DX
	CMPQ DX, CX
	JGE  festep_min1
	MOVQ DX, CX

festep_min1:
	MOVQ global_len+64(FP), DX
	CMPQ DX, CX
	JGE  festep_min2
	MOVQ DX, CX

festep_min2:
	MOVQ         delta_base+8(FP), DI
	MOVQ         local_base+32(FP), R8
	MOVQ         global_base+56(FP), R9
	VBROADCASTSS alpha+0(FP), Y0
	XORQ         BX, BX
	MOVQ         CX, DX
	ANDQ         $-16, DX
	CMPQ         BX, DX
	JGE          festep_blk8

festep_loop16:
	VMOVUPS (R8)(BX*4), Y1
	VMOVUPS 32(R8)(BX*4), Y4
	VMOVUPS (R9)(BX*4), Y2
	VMOVUPS 32(R9)(BX*4), Y5
	VSUBPS  Y2, Y1, Y3
	VSUBPS  Y5, Y4, Y6
	VMULPS  Y3, Y0, Y3
	VMULPS  Y6, Y0, Y6
	VSUBPS  Y3, Y1, Y1
	VSUBPS  Y6, Y4, Y4
	VMOVUPS Y1, (R8)(BX*4)
	VMOVUPS Y4, 32(R8)(BX*4)
	VMOVUPS Y3, (DI)(BX*4)
	VMOVUPS Y6, 32(DI)(BX*4)
	ADDQ    $16, BX
	CMPQ    BX, DX
	JLT     festep_loop16

festep_blk8:
	MOVQ CX, DX
	ANDQ $-8, DX
	CMPQ BX, DX
	JGE  festep_tail

festep_loop8:
	VMOVUPS (R8)(BX*4), Y1
	VMOVUPS (R9)(BX*4), Y2
	VSUBPS  Y2, Y1, Y3
	VMULPS  Y3, Y0, Y3
	VSUBPS  Y3, Y1, Y1
	VMOVUPS Y1, (R8)(BX*4)
	VMOVUPS Y3, (DI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, DX
	JLT     festep_loop8

festep_tail:
	CMPQ BX, CX
	JGE  festep_done

festep_tail_loop:
	VMOVSS (R8)(BX*4), X1
	VMOVSS (R9)(BX*4), X2
	VSUBSS X2, X1, X3
	VMULSS X3, X0, X3
	VSUBSS X3, X1, X1
	VMOVSS X1, (R8)(BX*4)
	VMOVSS X3, (DI)(BX*4)
	INCQ   BX
	CMPQ   BX, CX
	JLT    festep_tail_loop

festep_done:
	VZEROUPPER
	RET

// func FusedElasticExchange(alpha float32, delta, local, global []float32)
//
// d := alpha*(local[i]-global[i]); local[i] -= d; global[i] += d;
// delta[i] = d. Operands pairwise non-aliasing.
TEXT ·FusedElasticExchange(SB), NOSPLIT, $0-80
	MOVQ delta_len+16(FP), CX
	MOVQ local_len+40(FP), DX
	CMPQ DX, CX
	JGE  fex_min1
	MOVQ DX, CX

fex_min1:
	MOVQ global_len+64(FP), DX
	CMPQ DX, CX
	JGE  fex_min2
	MOVQ DX, CX

fex_min2:
	MOVQ         delta_base+8(FP), DI
	MOVQ         local_base+32(FP), R8
	MOVQ         global_base+56(FP), R9
	VBROADCASTSS alpha+0(FP), Y0
	XORQ         BX, BX
	MOVQ         CX, DX
	ANDQ         $-16, DX
	CMPQ         BX, DX
	JGE          fex_blk8

fex_loop16:
	VMOVUPS (R8)(BX*4), Y1
	VMOVUPS 32(R8)(BX*4), Y4
	VMOVUPS (R9)(BX*4), Y2
	VMOVUPS 32(R9)(BX*4), Y5
	VSUBPS  Y2, Y1, Y3
	VSUBPS  Y5, Y4, Y6
	VMULPS  Y3, Y0, Y3
	VMULPS  Y6, Y0, Y6
	VSUBPS  Y3, Y1, Y1
	VSUBPS  Y6, Y4, Y4
	VADDPS  Y3, Y2, Y2
	VADDPS  Y6, Y5, Y5
	VMOVUPS Y1, (R8)(BX*4)
	VMOVUPS Y4, 32(R8)(BX*4)
	VMOVUPS Y2, (R9)(BX*4)
	VMOVUPS Y5, 32(R9)(BX*4)
	VMOVUPS Y3, (DI)(BX*4)
	VMOVUPS Y6, 32(DI)(BX*4)
	ADDQ    $16, BX
	CMPQ    BX, DX
	JLT     fex_loop16

fex_blk8:
	MOVQ CX, DX
	ANDQ $-8, DX
	CMPQ BX, DX
	JGE  fex_tail

fex_loop8:
	VMOVUPS (R8)(BX*4), Y1
	VMOVUPS (R9)(BX*4), Y2
	VSUBPS  Y2, Y1, Y3
	VMULPS  Y3, Y0, Y3
	VSUBPS  Y3, Y1, Y1
	VADDPS  Y3, Y2, Y2
	VMOVUPS Y1, (R8)(BX*4)
	VMOVUPS Y2, (R9)(BX*4)
	VMOVUPS Y3, (DI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, DX
	JLT     fex_loop8

fex_tail:
	CMPQ BX, CX
	JGE  fex_done

fex_tail_loop:
	VMOVSS (R8)(BX*4), X1
	VMOVSS (R9)(BX*4), X2
	VSUBSS X2, X1, X3
	VMULSS X3, X0, X3
	VSUBSS X3, X1, X1
	VADDSS X3, X2, X2
	VMOVSS X1, (R8)(BX*4)
	VMOVSS X2, (R9)(BX*4)
	VMOVSS X3, (DI)(BX*4)
	INCQ   BX
	CMPQ   BX, CX
	JLT    fex_tail_loop

fex_done:
	VZEROUPPER
	RET

// func FusedAxpyCopy(alpha float32, x, y, dst []float32)
//
// dst[i] = fma(alpha, x[i], y[i]), contracted to one rounding in both
// the vector body and the scalar tail so the whole kernel is uniformly
// correctly rounded. dst may alias x or y exactly.
TEXT ·FusedAxpyCopy(SB), NOSPLIT, $0-80
	MOVQ x_len+16(FP), CX
	MOVQ y_len+40(FP), DX
	CMPQ DX, CX
	JGE  fac_min1
	MOVQ DX, CX

fac_min1:
	MOVQ dst_len+64(FP), DX
	CMPQ DX, CX
	JGE  fac_min2
	MOVQ DX, CX

fac_min2:
	MOVQ         x_base+8(FP), SI
	MOVQ         y_base+32(FP), DX
	MOVQ         dst_base+56(FP), DI
	VBROADCASTSS alpha+0(FP), Y0
	XORQ         BX, BX
	MOVQ         CX, R10
	ANDQ         $-16, R10
	CMPQ         BX, R10
	JGE          fac_blk8

fac_loop16:
	VMOVUPS     (DX)(BX*4), Y1
	VMOVUPS     32(DX)(BX*4), Y2
	VFMADD231PS (SI)(BX*4), Y0, Y1
	VFMADD231PS 32(SI)(BX*4), Y0, Y2
	VMOVUPS     Y1, (DI)(BX*4)
	VMOVUPS     Y2, 32(DI)(BX*4)
	ADDQ        $16, BX
	CMPQ        BX, R10
	JLT         fac_loop16

fac_blk8:
	MOVQ CX, R10
	ANDQ $-8, R10
	CMPQ BX, R10
	JGE  fac_tail

fac_loop8:
	VMOVUPS     (DX)(BX*4), Y1
	VFMADD231PS (SI)(BX*4), Y0, Y1
	VMOVUPS     Y1, (DI)(BX*4)
	ADDQ        $8, BX
	CMPQ        BX, R10
	JLT         fac_loop8

fac_tail:
	CMPQ BX, CX
	JGE  fac_done

fac_tail_loop:
	VMOVSS      (DX)(BX*4), X1
	VFMADD231SS (SI)(BX*4), X0, X1
	VMOVSS      X1, (DI)(BX*4)
	INCQ        BX
	CMPQ        BX, CX
	JLT         fac_tail_loop

fac_done:
	VZEROUPPER
	RET

// func FusedCopyAdd(x, src, dst []float32)
//
// v := x[i]; src[i] = v; dst[i] += v — the fused WRITE+ACCUMULATE stripe
// body. Pure adds in the same element order as copy-then-add, so this is
// bitwise-identical to the portable kernel. src and dst must not alias x
// or each other.
TEXT ·FusedCopyAdd(SB), NOSPLIT, $0-72
	MOVQ x_len+8(FP), CX
	MOVQ src_len+32(FP), DX
	CMPQ DX, CX
	JGE  fca_min1
	MOVQ DX, CX

fca_min1:
	MOVQ dst_len+56(FP), DX
	CMPQ DX, CX
	JGE  fca_min2
	MOVQ DX, CX

fca_min2:
	MOVQ x_base+0(FP), SI
	MOVQ src_base+24(FP), R8
	MOVQ dst_base+48(FP), DI
	XORQ BX, BX

	// The src stream is write-only here, so its stores go non-temporal:
	// a regular store would read each src cache line for ownership first,
	// and that extra read stream is exactly what the fusion exists to
	// avoid (it is also why plain copy+add, whose memmove half gets the
	// same effect from ERMSB, beats a naive fused loop). VMOVNTPS needs
	// 32-byte alignment, so peel scalar elements until src is aligned;
	// float32 slice bases are always 4-byte aligned, so the peel
	// terminates within 7 elements.
	MOVQ R8, AX
	ANDQ $31, AX
	JZ   fca_vec
	MOVQ $32, DX
	SUBQ AX, DX
	SHRQ $2, DX
	CMPQ DX, CX
	JLE  fca_peel
	MOVQ CX, DX

fca_peel:
	CMPQ BX, DX
	JGE  fca_vec
	VMOVSS (SI)(BX*4), X1
	VMOVSS (DI)(BX*4), X3
	VADDSS X1, X3, X3
	VMOVSS X1, (R8)(BX*4)
	VMOVSS X3, (DI)(BX*4)
	INCQ   BX
	JMP    fca_peel

fca_vec:
	// R10 = BX + ((CX-BX) & ~31): end of the 32-element main loop.
	MOVQ CX, R10
	SUBQ BX, R10
	ANDQ $-32, R10
	ADDQ BX, R10
	CMPQ BX, R10
	JGE  fca_blk8

fca_loop32:
	VMOVUPS  (SI)(BX*4), Y1
	VMOVUPS  32(SI)(BX*4), Y2
	VMOVUPS  64(SI)(BX*4), Y3
	VMOVUPS  96(SI)(BX*4), Y4
	VMOVUPS  (DI)(BX*4), Y5
	VMOVUPS  32(DI)(BX*4), Y6
	VMOVUPS  64(DI)(BX*4), Y7
	VMOVUPS  96(DI)(BX*4), Y8
	VADDPS   Y1, Y5, Y5
	VADDPS   Y2, Y6, Y6
	VADDPS   Y3, Y7, Y7
	VADDPS   Y4, Y8, Y8
	VMOVNTPS Y1, (R8)(BX*4)
	VMOVNTPS Y2, 32(R8)(BX*4)
	VMOVNTPS Y3, 64(R8)(BX*4)
	VMOVNTPS Y4, 96(R8)(BX*4)
	VMOVUPS  Y5, (DI)(BX*4)
	VMOVUPS  Y6, 32(DI)(BX*4)
	VMOVUPS  Y7, 64(DI)(BX*4)
	VMOVUPS  Y8, 96(DI)(BX*4)
	ADDQ     $32, BX
	CMPQ     BX, R10
	JLT      fca_loop32

fca_blk8:
	// 8-element steps keep the 32-byte src alignment, so these stores
	// stay non-temporal too.
	MOVQ CX, R10
	SUBQ BX, R10
	ANDQ $-8, R10
	ADDQ BX, R10
	CMPQ BX, R10
	JGE  fca_tail

fca_loop8:
	VMOVUPS  (SI)(BX*4), Y1
	VMOVUPS  (DI)(BX*4), Y5
	VADDPS   Y1, Y5, Y5
	VMOVNTPS Y1, (R8)(BX*4)
	VMOVUPS  Y5, (DI)(BX*4)
	ADDQ     $8, BX
	CMPQ     BX, R10
	JLT      fca_loop8

fca_tail:
	CMPQ BX, CX
	JGE  fca_done

fca_tail_loop:
	VMOVSS (SI)(BX*4), X1
	VMOVSS (DI)(BX*4), X3
	VADDSS X1, X3, X3
	VMOVSS X1, (R8)(BX*4)
	VMOVSS X3, (DI)(BX*4)
	INCQ   BX
	CMPQ   BX, CX
	JLT    fca_tail_loop

fca_done:
	// Drain the non-temporal stores: callers publish src under a lock
	// word immediately after this returns, and NT stores are weakly
	// ordered — without the fence another process could acquire the
	// stripe and read stale src bytes.
	SFENCE
	VZEROUPPER
	RET

// func GemmInner4(a *float32, b *float32, ldb int, c *float32, n int)
//
// Quad-row gemm microkernel: c[j] accumulates a0*b0[j], a1*b1[j],
// a2*b2[j], a3*b3[j] as four separate mul+add terms IN THAT ORDER per
// element — the exact accumulation order of the scalar blocked kernel,
// so no FMA here. Successive j-blocks are independent chains, which is
// what lets out-of-order execution overlap the four serial adds.
TEXT ·GemmInner4(SB), NOSPLIT, $0-40
	MOVQ         a+0(FP), AX
	MOVQ         b+8(FP), SI
	MOVQ         ldb+16(FP), DX
	MOVQ         c+24(FP), DI
	MOVQ         n+32(FP), CX
	VBROADCASTSS (AX), Y0
	VBROADCASTSS 4(AX), Y1
	VBROADCASTSS 8(AX), Y2
	VBROADCASTSS 12(AX), Y3
	LEAQ         (SI)(DX*4), R8
	LEAQ         (R8)(DX*4), R9
	LEAQ         (R9)(DX*4), R10
	XORQ         BX, BX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	CMPQ         BX, DX
	JGE          gi4_tail

gi4_loop8:
	VMOVUPS (DI)(BX*4), Y4
	VMOVUPS (SI)(BX*4), Y5
	VMULPS  Y5, Y0, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS (R8)(BX*4), Y5
	VMULPS  Y5, Y1, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS (R9)(BX*4), Y5
	VMULPS  Y5, Y2, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS (R10)(BX*4), Y5
	VMULPS  Y5, Y3, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS Y4, (DI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, DX
	JLT     gi4_loop8

gi4_tail:
	CMPQ BX, CX
	JGE  gi4_done

gi4_tail_loop:
	VMOVSS (DI)(BX*4), X4
	VMOVSS (SI)(BX*4), X5
	VMULSS X5, X0, X5
	VADDSS X5, X4, X4
	VMOVSS (R8)(BX*4), X5
	VMULSS X5, X1, X5
	VADDSS X5, X4, X4
	VMOVSS (R9)(BX*4), X5
	VMULSS X5, X2, X5
	VADDSS X5, X4, X4
	VMOVSS (R10)(BX*4), X5
	VMULSS X5, X3, X5
	VADDSS X5, X4, X4
	VMOVSS X4, (DI)(BX*4)
	INCQ   BX
	CMPQ   BX, CX
	JLT    gi4_tail_loop

gi4_done:
	VZEROUPPER
	RET

// func FusedMomentumStep(lr, mom, wd, clip float32, nesterov bool, w, g, v []float32)
//
// c := min(clip, max(-clip, g[i])); u := mom*v[i]; vn := u + lr*(c + wd*w[i]);
// w[i] -= vn (plain) or w[i] -= (1+mom)*vn - u (nesterov); v[i] = vn;
// g[i] = +0. The clamp takes g as the SECOND source of VMAXPS/VMINPS
// (the first Go operand), which is what both return when one input is
// NaN — a NaN gradient passes through as it does the scalar branches.
// Every product and sum is a separate VMULPS/VADDPS/VSUBPS whose first
// source is the value the Go expression names first: no FMA, bitwise-equal
// to the portable body. One branch on nesterov picks the loop; no branch
// inside either.
TEXT ·FusedMomentumStep(SB), NOSPLIT, $0-96
	MOVQ w_len+32(FP), CX
	MOVQ g_len+56(FP), DX
	CMPQ DX, CX
	JGE  fms_min1
	MOVQ DX, CX

fms_min1:
	MOVQ v_len+80(FP), DX
	CMPQ DX, CX
	JGE  fms_min2
	MOVQ DX, CX

fms_min2:
	MOVQ         w_base+24(FP), DI
	MOVQ         g_base+48(FP), SI
	MOVQ         v_base+72(FP), DX
	VBROADCASTSS lr+0(FP), Y0
	VBROADCASTSS mom+4(FP), Y1
	VBROADCASTSS wd+8(FP), Y2
	VBROADCASTSS clip+12(FP), Y3
	MOVL         $0x80000000, AX
	VMOVD        AX, X4
	VBROADCASTSS X4, Y4
	VXORPS       Y3, Y4, Y4           // -clip
	MOVL         $0x3f800000, AX
	VMOVD        AX, X5
	VADDSS       mom+4(FP), X5, X5    // 1 + mom
	VBROADCASTSS X5, Y5
	VXORPS       Y12, Y12, Y12        // the +0 the gradient is cleared to
	XORQ         BX, BX
	MOVQ         CX, R10
	ANDQ         $-8, R10
	CMPB         nesterov+16(FP), $0
	JNE          fms_nag

	CMPQ BX, R10
	JGE  fms_tail

fms_loop8:
	VMOVUPS (SI)(BX*4), Y6
	VMAXPS  Y6, Y4, Y6
	VMINPS  Y6, Y3, Y6
	VMOVUPS (DI)(BX*4), Y7
	VMULPS  Y7, Y2, Y8
	VADDPS  Y8, Y6, Y8
	VMULPS  Y8, Y0, Y8
	VMOVUPS (DX)(BX*4), Y9
	VMULPS  Y9, Y1, Y9
	VADDPS  Y8, Y9, Y9
	VSUBPS  Y9, Y7, Y7
	VMOVUPS Y7, (DI)(BX*4)
	VMOVUPS Y9, (DX)(BX*4)
	VMOVUPS Y12, (SI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, R10
	JLT     fms_loop8

fms_tail:
	CMPQ BX, CX
	JGE  fms_done

fms_tail_loop:
	VMOVSS (SI)(BX*4), X6
	VMAXSS X6, X4, X6
	VMINSS X6, X3, X6
	VMOVSS (DI)(BX*4), X7
	VMULSS X7, X2, X8
	VADDSS X8, X6, X8
	VMULSS X8, X0, X8
	VMOVSS (DX)(BX*4), X9
	VMULSS X9, X1, X9
	VADDSS X8, X9, X9
	VSUBSS X9, X7, X7
	VMOVSS X7, (DI)(BX*4)
	VMOVSS X9, (DX)(BX*4)
	VMOVSS X12, (SI)(BX*4)
	INCQ   BX
	CMPQ   BX, CX
	JLT    fms_tail_loop
	JMP    fms_done

fms_nag:
	CMPQ BX, R10
	JGE  fms_nag_tail

fms_nag_loop8:
	VMOVUPS (SI)(BX*4), Y6
	VMAXPS  Y6, Y4, Y6
	VMINPS  Y6, Y3, Y6
	VMOVUPS (DI)(BX*4), Y7
	VMULPS  Y7, Y2, Y8
	VADDPS  Y8, Y6, Y8
	VMULPS  Y8, Y0, Y8
	VMOVUPS (DX)(BX*4), Y9
	VMULPS  Y9, Y1, Y9
	VADDPS  Y8, Y9, Y10
	VMULPS  Y10, Y5, Y11
	VSUBPS  Y9, Y11, Y11
	VSUBPS  Y11, Y7, Y7
	VMOVUPS Y7, (DI)(BX*4)
	VMOVUPS Y10, (DX)(BX*4)
	VMOVUPS Y12, (SI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, R10
	JLT     fms_nag_loop8

fms_nag_tail:
	CMPQ BX, CX
	JGE  fms_done

fms_nag_tail_loop:
	VMOVSS (SI)(BX*4), X6
	VMAXSS X6, X4, X6
	VMINSS X6, X3, X6
	VMOVSS (DI)(BX*4), X7
	VMULSS X7, X2, X8
	VADDSS X8, X6, X8
	VMULSS X8, X0, X8
	VMOVSS (DX)(BX*4), X9
	VMULSS X9, X1, X9
	VADDSS X8, X9, X10
	VMULSS X10, X5, X11
	VSUBSS X9, X11, X11
	VSUBSS X11, X7, X7
	VMOVSS X7, (DI)(BX*4)
	VMOVSS X10, (DX)(BX*4)
	VMOVSS X12, (SI)(BX*4)
	INCQ   BX
	CMPQ   BX, CX
	JLT    fms_nag_tail_loop

fms_done:
	VZEROUPPER
	RET

// TRANSB_COLS loads four l of the eight b rows at DI (row 0), R11 (row 3)
// and R12 (row 6), DX bytes apart — rows j and j+4 into the low and high
// lanes of one register — and transposes them in-lane into the column
// vectors Y4–Y7: Y(4+c) = b[0..7][l+c]. Clobbers Y8–Y11.
#define TRANSB_COLS \
	VMOVUPS     (DI), X4; \
	VINSERTF128 $1, (DI)(DX*4), Y4, Y4; \
	VMOVUPS     (DI)(DX*1), X5; \
	VINSERTF128 $1, (R11)(DX*2), Y5, Y5; \
	VMOVUPS     (DI)(DX*2), X6; \
	VINSERTF128 $1, (R12), Y6, Y6; \
	VMOVUPS     (R11), X7; \
	VINSERTF128 $1, (R11)(DX*4), Y7, Y7; \
	VUNPCKLPS   Y5, Y4, Y8; \
	VUNPCKHPS   Y5, Y4, Y9; \
	VUNPCKLPS   Y7, Y6, Y10; \
	VUNPCKHPS   Y7, Y6, Y11; \
	VSHUFPS     $0x44, Y10, Y8, Y4; \
	VSHUFPS     $0xEE, Y10, Y8, Y5; \
	VSHUFPS     $0x44, Y11, Y9, Y6; \
	VSHUFPS     $0xEE, Y11, Y9, Y7

// func GemmTransB4x8(a, b *float32, ld, k int, c *float32, ldc int)
//
// The a×bᵀ microkernel: c[i*ldc+j] = Σ_{l<k} a[i*ld+l]*b[j*ld+l] for
// i < 4, j < 8, with k a positive multiple of 4. Per 4-step of l, rows
// j and j+4 of b share a register (xmm load + VINSERTF128 into the high
// lane), and a 4×4 in-lane transpose (VUNPCKLPS/VUNPCKHPS, then VSHUFPS
// 0x44/0xEE) turns the four registers into the column vectors
// col_c = b[j..j+7][l+c]. Row i's accumulator then takes
// bcast(a[i][l+c])·col_c for c ascending, as a VMULPS with a as its first
// source and a VADDPS with the accumulator as its first source: every
// lane is the serial dot product s += a[l]*b[l] from +0 over ascending l,
// the reference's operand order and roundings, no FMA. Each accumulator
// is one add chain; the four rows are the four independent chains.
//
// Registers: SI/R10 a rows 0 and 3 (rows 1, 2 at SI+ld, SI+2ld), DI/R11/
// R12 b rows 0, 3 and 6 (the others at +ld, +2ld, +4ld of those), DX ld
// in bytes, CX the 4-steps left; Y0–Y3 the row accumulators.
TEXT ·GemmTransB4x8(SB), NOSPLIT, $0-48
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DI
	MOVQ   ld+16(FP), DX
	MOVQ   k+24(FP), CX
	SHLQ   $2, DX
	SHRQ   $2, CX
	LEAQ   (SI)(DX*2), R10
	ADDQ   DX, R10
	LEAQ   (DI)(DX*2), R11
	ADDQ   DX, R11
	LEAQ   (R11)(DX*2), R12
	ADDQ   DX, R12
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

tb48_loop:
	TRANSB_COLS

	VBROADCASTSS (SI), Y8
	VMULPS       Y4, Y8, Y8
	VADDPS       Y8, Y0, Y0
	VBROADCASTSS (SI)(DX*1), Y9
	VMULPS       Y4, Y9, Y9
	VADDPS       Y9, Y1, Y1
	VBROADCASTSS (SI)(DX*2), Y10
	VMULPS       Y4, Y10, Y10
	VADDPS       Y10, Y2, Y2
	VBROADCASTSS (R10), Y11
	VMULPS       Y4, Y11, Y11
	VADDPS       Y11, Y3, Y3

	VBROADCASTSS 4(SI), Y8
	VMULPS       Y5, Y8, Y8
	VADDPS       Y8, Y0, Y0
	VBROADCASTSS 4(SI)(DX*1), Y9
	VMULPS       Y5, Y9, Y9
	VADDPS       Y9, Y1, Y1
	VBROADCASTSS 4(SI)(DX*2), Y10
	VMULPS       Y5, Y10, Y10
	VADDPS       Y10, Y2, Y2
	VBROADCASTSS 4(R10), Y11
	VMULPS       Y5, Y11, Y11
	VADDPS       Y11, Y3, Y3

	VBROADCASTSS 8(SI), Y8
	VMULPS       Y6, Y8, Y8
	VADDPS       Y8, Y0, Y0
	VBROADCASTSS 8(SI)(DX*1), Y9
	VMULPS       Y6, Y9, Y9
	VADDPS       Y9, Y1, Y1
	VBROADCASTSS 8(SI)(DX*2), Y10
	VMULPS       Y6, Y10, Y10
	VADDPS       Y10, Y2, Y2
	VBROADCASTSS 8(R10), Y11
	VMULPS       Y6, Y11, Y11
	VADDPS       Y11, Y3, Y3

	VBROADCASTSS 12(SI), Y8
	VMULPS       Y7, Y8, Y8
	VADDPS       Y8, Y0, Y0
	VBROADCASTSS 12(SI)(DX*1), Y9
	VMULPS       Y7, Y9, Y9
	VADDPS       Y9, Y1, Y1
	VBROADCASTSS 12(SI)(DX*2), Y10
	VMULPS       Y7, Y10, Y10
	VADDPS       Y10, Y2, Y2
	VBROADCASTSS 12(R10), Y11
	VMULPS       Y7, Y11, Y11
	VADDPS       Y11, Y3, Y3

	ADDQ $16, SI
	ADDQ $16, R10
	ADDQ $16, DI
	ADDQ $16, R11
	ADDQ $16, R12
	DECQ CX
	JNZ  tb48_loop

	MOVQ    c+32(FP), DI
	MOVQ    ldc+40(FP), DX
	SHLQ    $2, DX
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(DX*1)
	VMOVUPS Y2, (DI)(DX*2)
	LEAQ    (DI)(DX*2), DI
	VMOVUPS Y3, (DI)(DX*1)
	VZEROUPPER
	RET

// func GemmTransB1x8(a, b *float32, ld, k int, c *float32)
//
// GemmTransB4x8 for one row of a: c[j] = Σ_{l<k} a[l]*b[j*ld+l] for
// j < 8, k a positive multiple of 4, the same transpose and the same
// per-lane order. With one add chain it runs at add latency; it serves
// the rows a 4-row tile cannot cover (m < 4, the batch-1 dX).
TEXT ·GemmTransB1x8(SB), NOSPLIT, $0-40
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DI
	MOVQ   ld+16(FP), DX
	MOVQ   k+24(FP), CX
	SHLQ   $2, DX
	SHRQ   $2, CX
	LEAQ   (DI)(DX*2), R11
	ADDQ   DX, R11
	LEAQ   (R11)(DX*2), R12
	ADDQ   DX, R12
	VXORPS Y0, Y0, Y0

tb18_loop:
	TRANSB_COLS

	VBROADCASTSS (SI), Y8
	VMULPS       Y4, Y8, Y8
	VADDPS       Y8, Y0, Y0
	VBROADCASTSS 4(SI), Y9
	VMULPS       Y5, Y9, Y9
	VADDPS       Y9, Y0, Y0
	VBROADCASTSS 8(SI), Y10
	VMULPS       Y6, Y10, Y10
	VADDPS       Y10, Y0, Y0
	VBROADCASTSS 12(SI), Y11
	VMULPS       Y7, Y11, Y11
	VADDPS       Y11, Y0, Y0

	ADDQ $16, SI
	ADDQ $16, DI
	ADDQ $16, R11
	ADDQ $16, R12
	DECQ CX
	JNZ  tb18_loop

	MOVQ    c+32(FP), DI
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// func MaskPositive(dst, x, m []float32)
//
// dst[i] = x[i] where m[i] > 0, else +0: VCMPPS with predicate GT_OQ
// (0x1e) against zero gives all ones exactly where m[i] > 0 — false for
// ±0 and every NaN, true for positive subnormals (DAZ is off) and +Inf —
// and VANDPS keeps x's bits under that mask. No arithmetic, so the result
// is bitwise the portable posMask body. dst may alias x or m exactly
// (every load of an element precedes the store to it).
TEXT ·MaskPositive(SB), NOSPLIT, $0-72
	MOVQ dst_len+8(FP), CX
	MOVQ x_len+32(FP), DX
	CMPQ DX, CX
	JGE  mp_min1
	MOVQ DX, CX

mp_min1:
	MOVQ m_len+56(FP), DX
	CMPQ DX, CX
	JGE  mp_min2
	MOVQ DX, CX

mp_min2:
	MOVQ   dst_base+0(FP), DI
	MOVQ   x_base+24(FP), SI
	MOVQ   m_base+48(FP), R8
	VXORPS Y0, Y0, Y0
	XORQ   BX, BX
	MOVQ   CX, DX
	ANDQ   $-8, DX
	CMPQ   BX, DX
	JGE    mp_tail

mp_loop8:
	VMOVUPS (R8)(BX*4), Y1
	VCMPPS  $0x1e, Y0, Y1, Y1
	VANDPS  (SI)(BX*4), Y1, Y1
	VMOVUPS Y1, (DI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, DX
	JLT     mp_loop8

mp_tail:
	CMPQ BX, CX
	JGE  mp_done

mp_tail_loop:
	VMOVSS (R8)(BX*4), X1
	VCMPSS $0x1e, X0, X1, X1
	VMOVSS (SI)(BX*4), X2
	VANDPS X2, X1, X1
	VMOVSS X1, (DI)(BX*4)
	INCQ   BX
	CMPQ   BX, CX
	JLT    mp_tail_loop

mp_done:
	VZEROUPPER
	RET
