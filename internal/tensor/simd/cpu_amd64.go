//go:build amd64 && !noasm

package simd

import "os"

// cpuid executes the CPUID instruction for the given leaf (EAX) and
// sub-leaf (ECX). Implemented in cpu_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0), which reports the
// register state the OS actually saves across context switches. Only
// valid once CPUID has confirmed OSXSAVE; implemented in cpu_amd64.s.
func xgetbv() (eax, edx uint32)

const (
	cpuid1FMA     = 1 << 12 // leaf 1 ECX: fused multiply-add
	cpuid1OSXSAVE = 1 << 27 // leaf 1 ECX: OS enabled XGETBV
	cpuid1AVX     = 1 << 28 // leaf 1 ECX: AVX instructions
	cpuid7AVX2    = 1 << 5  // leaf 7 EBX: AVX2 instructions
	xcr0YMM       = 0x6     // XCR0: XMM (bit 1) and YMM (bit 2) state saved
)

// init runs the feature probe once. The kernels use AVX2 loads/stores,
// FMA (FusedAxpyCopy), and YMM registers, so all of AVX, AVX2, FMA and
// OS-managed YMM state are required together; any miss leaves the
// package disabled and the tensor dispatcher on the portable kernels.
func init() {
	if os.Getenv("SHMCAFFE_NOSIMD") != "" {
		return
	}
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const need1 = cpuid1FMA | cpuid1OSXSAVE | cpuid1AVX
	if ecx1&need1 != need1 {
		return
	}
	// OSXSAVE only says XGETBV works; XCR0 says whether the kernel
	// actually saves YMM state. Executing VEX-256 without it faults.
	if lo, _ := xgetbv(); lo&xcr0YMM != xcr0YMM {
		return
	}
	_, ebx7, _, _ := cpuid(7, 0)
	if ebx7&cpuid7AVX2 == 0 {
		return
	}
	enabled = true
	backend = "avx2+fma"
}
