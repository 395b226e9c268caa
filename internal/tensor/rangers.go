package tensor

import "shmcaffe/internal/parallel"

// Recycled parallel.Ranger adapters for the row/channel-partitioned kernels.
//
// A closure that captures its operands allocates at every call site (the
// capture block escapes through the pool's task channel — BenchmarkGemm
// measured 96 B/op on the gemm dispatch). Packaging the operands in a
// recycled struct whose pointer implements Range keeps the dispatch at zero
// allocations: interface conversion from a pointer stores the pointer
// directly, and the struct is returned to a parallel.Freelist after the
// join (a Freelist, not a sync.Pool, so the zero-alloc contract holds
// across GC cycles). Each adapter zeroes its slice fields before Put so
// recycled entries never pin caller arrays.

// gemmRanger partitions C rows of an a×b or aᵀ×b gemm across the pool
// (see gemmAB for the strided A).
type gemmRanger struct {
	a, b, c      []float32
	sa, sl, k, n int
	acc          bool // accumulate into c instead of overwriting it
	skip         bool // the row kernel may skip zero A values (skipZeroA)
}

func (g *gemmRanger) Range(lo, hi int) {
	gemmTiles(hi-lo, g.n, g.k, g.a[lo*g.sa:], g.sa, g.sl, g.b, g.c[lo*g.n:hi*g.n], g.acc, g.skip)
}

var gemmRangerFree = parallel.NewFreelist[gemmRanger](8)

// transBRanger partitions C rows of the a×bᵀ kernel.
type transBRanger struct {
	a, b, c []float32
	k, n    int
}

func (g *transBRanger) Range(lo, hi int) {
	gemmTransBRows(hi-lo, g.n, g.k, g.a[lo*g.k:hi*g.k], g.b, g.c[lo*g.n:hi*g.n])
}

var transBRangerFree = parallel.NewFreelist[transBRanger](8)

// im2colRanger partitions channels of the im2col lowering.
type im2colRanger struct {
	img, col     []float32
	h, w, oh, ow int
	p            ConvParams
}

func (r *im2colRanger) Range(lo, hi int) {
	im2ColChannels(r.img, lo, hi, r.h, r.w, r.oh, r.ow, r.p, r.col)
}

var im2colRangerFree = parallel.NewFreelist[im2colRanger](8)

// col2imRanger partitions channels of the col2im scatter.
type col2imRanger struct {
	col, img     []float32
	h, w, oh, ow int
	p            ConvParams
}

func (r *col2imRanger) Range(lo, hi int) {
	col2ImChannels(r.col, lo, hi, r.h, r.w, r.oh, r.ow, r.p, r.img)
}

var col2imRangerFree = parallel.NewFreelist[col2imRanger](8)
