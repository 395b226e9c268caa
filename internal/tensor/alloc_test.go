package tensor

import (
	"runtime"
	"testing"
)

// Allocation regression guard for the gemm dispatch paths (scripts/check.sh
// tier 2 runs these by name). The dispatch state — ranger structs, transA
// pack panels, and the pool's join WaitGroups — recycles through
// parallel.Freelist, so a warmed steady state performs zero heap
// allocations per call EVEN ACROSS GC CYCLES. The forced collections
// inside the measured loop are the regression this guards against: the
// earlier sync.Pool-based dispatch stayed "zero-alloc" only between GCs,
// and the benchmark harness's per-run collections surfaced that as a
// stray 8 B/op on BenchmarkGemm/parallel/256.

// gemmAllocSize is big enough that every layer of the dispatch runs
// (multiple grain-8 row ranges, pack panels on the transA path) while
// keeping the guard fast.
const gemmAllocSize = 96

func assertZeroAllocAcrossGC(t *testing.T, tag string, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for i := 0; i < 8; i++ { // warm the freelists
		fn()
	}
	allocs := testing.AllocsPerRun(10, func() {
		// Two collections fully drain a sync.Pool (primary then victim
		// cache), so any pooled state that does not survive GC shows up
		// as an allocation on the very next call.
		runtime.GC()
		runtime.GC()
		fn()
	})
	if allocs != 0 {
		t.Fatalf("%s allocates %.2f objects/op across GC, want 0", tag, allocs)
	}
}

func TestGemmParallelZeroAllocAcrossGC(t *testing.T) {
	s := gemmAllocSize
	a := make([]float32, s*s)
	b := make([]float32, s*s)
	c := make([]float32, s*s)
	fillPattern(a, 1)
	fillPattern(b, 2)
	assertZeroAllocAcrossGC(t, "gemmParallel", func() { gemmParallel(s, s, s, a, b, c) })
}

func TestGemmTransAParallelZeroAllocAcrossGC(t *testing.T) {
	s := gemmAllocSize
	a := make([]float32, s*s)
	b := make([]float32, s*s)
	c := make([]float32, s*s)
	fillPattern(a, 3)
	fillPattern(b, 4)
	assertZeroAllocAcrossGC(t, "gemmTransAParallel", func() { gemmTransAParallel(s, s, s, a, b, c, true) })
}

func TestGemmTransBParallelZeroAllocAcrossGC(t *testing.T) {
	s := gemmAllocSize
	a := make([]float32, s*s)
	b := make([]float32, s*s)
	c := make([]float32, s*s)
	fillPattern(a, 5)
	fillPattern(b, 6)
	assertZeroAllocAcrossGC(t, "gemmTransBParallel", func() { gemmTransBParallel(s, s, s, a, b, c) })
	// The dispatched a×bᵀ (the microkernel on the SIMD backend): at s³ the
	// rows run inline; twice the rows crosses gemmParallelFlops and fans
	// them out, with the kernel as the range kernel.
	assertZeroAllocAcrossGC(t, "gemmTransB", func() { gemmTransB(s, s, s, a, b, c) })
	a2 := make([]float32, 2*s*s)
	c2 := make([]float32, 2*s*s)
	fillPattern(a2, 7)
	assertZeroAllocAcrossGC(t, "gemmTransB(parallel)", func() { gemmTransB(2*s, s, s, a2, b, c2) })
}

// TestDispatchedKernelsZeroAlloc pins the streaming kernels behind the
// function-pointer dispatch: an indirect call through a package var must
// not make the slice arguments escape.
func TestDispatchedKernelsZeroAlloc(t *testing.T) {
	n := 4096
	x := make([]float32, n)
	y := make([]float32, n)
	d := make([]float32, n)
	fillPattern(x, 7)
	fillPattern(y, 8)
	assertZeroAllocAcrossGC(t, "AxpySlice", func() { AxpySlice(0.5, x, y) })
	assertZeroAllocAcrossGC(t, "AxpySlice(alpha=1)", func() { AxpySlice(1, x, y) })
	assertZeroAllocAcrossGC(t, "FusedElasticStep", func() { FusedElasticStep(0.3, d, x, y) })
	assertZeroAllocAcrossGC(t, "FusedElasticExchange", func() { FusedElasticExchange(0.3, d, x, y) })
	assertZeroAllocAcrossGC(t, "FusedAxpyCopy", func() { FusedAxpyCopy(0.3, x, y, d) })
	assertZeroAllocAcrossGC(t, "FusedMomentumStep", func() { FusedMomentumStep(0.01, 0.9, 1e-4, 5, true, x, y, d) })
	assertZeroAllocAcrossGC(t, "MaskPositive", func() { MaskPositive(d, x, y) })
}
