package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"shmcaffe/internal/smb"
	"shmcaffe/internal/tensor"
)

// Kernel microbenchmarks, run in-process through testing.Benchmark so that
// cmd/benchtables -kernels can emit BENCH_kernels.json without shelling
// out to the go toolchain. These measure the real kernels (the same code
// the *_bench_test.go files exercise), not the perfmodel: gemm scalar vs
// parallel, im2col/col2im as dispatched, and the SMB store data path.
//
// Results are machine-dependent by nature; the report therefore records
// GOMAXPROCS and NumCPU so a single-core run is not mistaken for a
// scaling claim.

// KernelResult is one benchmark line.
type KernelResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// KernelReport is the schema of BENCH_kernels.json.
type KernelReport struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// SimdBackend records which float32 backend the dispatched kernels ran
	// on ("avx2+fma" or "portable") — without it a portable-build rerun
	// would look like a regression against SIMD numbers.
	SimdBackend string             `json:"simd_backend"`
	Note        string             `json:"note,omitempty"`
	Results     []KernelResult     `json:"results"`
	Speedups    map[string]float64 `json:"speedups_parallel_vs_scalar"`
}

// singleCoreNote is attached when GOMAXPROCS is 1, where the pinned
// parallel kernels cannot show scaling. With the SIMD backend active the
// blocked kernel still wins on vector width alone; on the portable
// backend it can only lose to the scalar reference.
const singleCoreNote = "gemm/parallel entries pin the blocked parallel kernel for " +
	"comparison; with GOMAXPROCS=1 any gemm ratio above 1 is the SIMD microkernel's " +
	"vector-width win (see simd_backend), not scaling. " +
	"Re-run `benchtables -kernels` on a multi-core host for scaling numbers."

// kernelFill writes a deterministic mixed-magnitude pattern (including
// exact zeros, which the gemm kernels special-case).
func kernelFill(dst []float32, seed int) {
	for i := range dst {
		switch (i + seed) % 7 {
		case 0:
			dst[i] = 0
		case 1:
			dst[i] = float32(i%13) * 1e-3
		default:
			dst[i] = float32((i*31+seed)%17) - 8
		}
	}
}

func benchResult(name string, logicalBytes int64, r testing.BenchmarkResult) KernelResult {
	kr := KernelResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if logicalBytes > 0 && kr.NsPerOp > 0 {
		kr.MBPerSec = float64(logicalBytes) / kr.NsPerOp * 1e9 / (1 << 20)
	}
	return kr
}

// benchMin runs fn through testing.Benchmark k times and returns the run
// with the lowest ns/op. The comparison pairs (fused vs unfused, shm vs
// tcp) can be inverted between back-to-back runs by scheduler steal time on
// a shared host; the minimum is the least-disturbed measurement of each
// side.
func benchMin(k int, fn func(bb *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(fn)
	bestNs := float64(best.T.Nanoseconds()) / float64(best.N)
	for i := 1; i < k; i++ {
		r := testing.Benchmark(fn)
		if ns := float64(r.T.Nanoseconds()) / float64(r.N); ns < bestNs {
			best, bestNs = r, ns
		}
	}
	return best
}

// benchGemmKernel benchmarks one raw gemm implementation at size s³.
func benchGemmKernel(fn func(m, n, k int, a, b, c []float32), s int) testing.BenchmarkResult {
	a := make([]float32, s*s)
	b := make([]float32, s*s)
	c := make([]float32, s*s)
	kernelFill(a, 1)
	kernelFill(b, 2)
	return testing.Benchmark(func(bb *testing.B) {
		bb.ReportAllocs()
		for i := 0; i < bb.N; i++ {
			fn(s, s, s, a, b, c)
		}
	})
}

// KernelBench runs the suite and returns the report. quick shortens the
// size list for smoke runs.
func KernelBench(quick bool) (*KernelReport, error) {
	rep := &KernelReport{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		SimdBackend: tensor.SimdBackend(),
		Speedups:    map[string]float64{},
	}
	if rep.GOMAXPROCS == 1 {
		rep.Note = singleCoreNote
	}

	sizes := []int{64, 128, 256}
	if quick {
		sizes = []int{64, 128}
	}
	for _, s := range sizes {
		flopBytes := int64(2) * int64(s) * int64(s) * int64(s) * 4
		sc := benchGemmKernel(tensor.GemmScalar, s)
		pa := benchGemmKernel(tensor.GemmParallel, s)
		rep.Results = append(rep.Results,
			benchResult(fmt.Sprintf("gemm/scalar/%d", s), flopBytes, sc),
			benchResult(fmt.Sprintf("gemm/parallel/%d", s), flopBytes, pa))
		if pa.T > 0 && pa.N > 0 {
			scNs := float64(sc.T.Nanoseconds()) / float64(sc.N)
			paNs := float64(pa.T.Nanoseconds()) / float64(pa.N)
			if paNs > 0 {
				rep.Speedups[fmt.Sprintf("gemm/%d", s)] = scNs / paNs
			}
		}
	}

	// im2col / col2im as dispatched (c=64 channels crosses the parallel
	// threshold).
	{
		const ch, h, w = 64, 32, 32
		p := tensor.ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		img := make([]float32, ch*h*w)
		kernelFill(img, 3)
		oh, ow := p.OutSize(h, w)
		col := make([]float32, ch*p.KernelH*p.KernelW*oh*ow)
		logical := int64(len(col)) * 4
		r := testing.Benchmark(func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				tensor.Im2Col(img, ch, h, w, p, col)
			}
		})
		rep.Results = append(rep.Results, benchResult("im2col/c64_32x32_k3", logical, r))
		r = testing.Benchmark(func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				tensor.Col2Im(col, ch, h, w, p, img)
			}
		})
		rep.Results = append(rep.Results, benchResult("col2im/c64_32x32_k3", logical, r))
	}

	// Fused SEASGD elastic step (T2): the seed worker swept the weight
	// vector three times per exchange — delta = α·(local − global), then
	// local −= delta, then the handoff copy into pendingDelta. The fused
	// kernel does all of it in one width-8 unrolled pass. Rows pin both so
	// the speedup is the real critical-path saving.
	elasticSizes := []int{1 << 16, 1 << 20}
	if quick {
		elasticSizes = []int{1 << 16}
	}
	for _, n := range elasticSizes {
		local := make([]float32, n)
		global := make([]float32, n)
		delta := make([]float32, n)
		pending := make([]float32, n)
		kernelFill(local, 6)
		// global == local keeps the iterated update stationary: repeated
		// local −= α·(local−global) otherwise contracts local onto global
		// and the shrinking differences fall into subnormals, where FP
		// assists dominate and the benchmark measures denormal handling
		// instead of the kernels. With zero differences every intermediate
		// is an exact zero — full-speed FP, same instruction stream.
		copy(global, local)
		logical := int64(n) * 4
		unf := benchMin(3, func(bb *testing.B) {
			bb.ReportAllocs()
			const a = float32(0.3)
			for i := 0; i < bb.N; i++ {
				for j := range delta {
					delta[j] = a * (local[j] - global[j])
				}
				for j := range local {
					local[j] -= delta[j]
				}
				copy(pending, delta)
			}
		})
		fus := benchMin(3, func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				tensor.FusedElasticStep(0.3, pending, local, global)
			}
		})
		rep.Results = append(rep.Results,
			benchResult(fmt.Sprintf("elastic_step/unfused/%d", n), logical, unf),
			benchResult(fmt.Sprintf("elastic_step/fused/%d", n), logical, fus))
		unfNs := float64(unf.T.Nanoseconds()) / float64(unf.N)
		fusNs := float64(fus.T.Nanoseconds()) / float64(fus.N)
		if fusNs > 0 {
			rep.Speedups[fmt.Sprintf("elastic_step/%d", n)] = unfNs / fusNs
		}
	}

	// Axpy (the Eq. 7 accumulate inner loop): scalar reference vs the
	// dispatched kernel (AVX2 where available, width-8 unrolled otherwise).
	// The small size is L1-resident (where the vector width shows); 1 Mi
	// elements (4 MiB) falls out of L2 and is bandwidth-bound.
	axpySizes := []int{1 << 12, 1 << 16, 1 << 20}
	if quick {
		axpySizes = []int{1 << 12}
	}
	for _, n := range axpySizes {
		x := make([]float32, n)
		y := make([]float32, n)
		kernelFill(x, 8)
		kernelFill(y, 9)
		logical := int64(n) * 4
		sc := benchMin(3, func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				tensor.AxpySliceScalar(1, x, y)
			}
		})
		un := benchMin(3, func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				tensor.AxpySlice(1, x, y)
			}
		})
		rep.Results = append(rep.Results,
			benchResult(fmt.Sprintf("axpy/scalar/%d", n), logical, sc),
			benchResult(fmt.Sprintf("axpy/dispatched/%d", n), logical, un))
		scNs := float64(sc.T.Nanoseconds()) / float64(sc.N)
		unNs := float64(un.T.Nanoseconds()) / float64(un.N)
		if unNs > 0 {
			rep.Speedups[fmt.Sprintf("axpy/%d", n)] = scNs / unNs
		}
	}

	// SMB store Accumulate: one shared multi-stripe global, concurrent
	// private deltas — the SEASGD contention point.
	for _, workers := range []int{1, 4} {
		const vals = 1 << 18 // 1 MiB, spans multiple lock stripes
		store := smb.NewStore()
		gKey, err := store.Create("kern/wg", vals*4)
		if err != nil {
			return nil, err
		}
		hg, err := store.Attach(gKey)
		if err != nil {
			return nil, err
		}
		buf := make([]float32, vals)
		kernelFill(buf, 4)
		raw := tensor.Float32Bytes(buf)
		handles := make([]smb.Handle, workers)
		for i := range handles {
			dKey, err := store.Create(fmt.Sprintf("kern/dw%d", i), vals*4)
			if err != nil {
				return nil, err
			}
			hd, err := store.Attach(dKey)
			if err != nil {
				return nil, err
			}
			if err := store.Write(hd, 0, raw); err != nil {
				return nil, err
			}
			handles[i] = hd
		}
		r := testing.Benchmark(func(bb *testing.B) {
			bb.ReportAllocs()
			if workers == 1 {
				for i := 0; i < bb.N; i++ {
					if err := store.Accumulate(hg, handles[0]); err != nil {
						bb.Fatal(err)
					}
				}
				return
			}
			var next int
			bb.RunParallel(func(pb *testing.PB) {
				hd := handles[next%len(handles)]
				next++
				for pb.Next() {
					if err := store.Accumulate(hg, hd); err != nil {
						bb.Fatal(err)
					}
				}
			})
		})
		rep.Results = append(rep.Results,
			benchResult(fmt.Sprintf("smb/accumulate/workers=%d", workers), vals*4, r))
	}

	// TCP round trip: Write of a 16 KiB payload through the stream
	// protocol (zero-alloc wire path; ns/op is dominated by loopback).
	{
		store := smb.NewStore()
		srv, err := smb.NewServer(store, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		go srv.Serve() //lint:ignore goleak joined by srv.Close via the server's WaitGroup
		client, err := smb.Dial(srv.Addr())
		if err != nil {
			return nil, err
		}
		defer client.Close()
		key, err := client.Create("kern/rt", 4096*4)
		if err != nil {
			return nil, err
		}
		h, err := client.Attach(key)
		if err != nil {
			return nil, err
		}
		buf := make([]float32, 4096)
		kernelFill(buf, 5)
		raw := tensor.Float32Bytes(buf)
		r := testing.Benchmark(func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				if err := client.Write(h, 0, raw); err != nil {
					bb.Fatal(err)
				}
			}
		})
		rep.Results = append(rep.Results, benchResult("smb/tcp_write/16KiB", 4096*4, r))
	}

	// Transport rows (tcp / shm push+accumulate) and the
	// cross-transport speedups at 1 MiB.
	if err := transportKernelRows(rep, quick); err != nil {
		return nil, err
	}

	// Serving rows: live-read vs snapshot-read p50/p99 under an
	// accumulate storm, plus the snapshot-read zero-alloc contract
	// (serve.go).
	if err := ServeBench(rep, quick); err != nil {
		return nil, err
	}

	return rep, nil
}

// WriteJSON renders the report as indented JSON.
func (r *KernelReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
