//go:build !amd64 || noasm

package simd

// Portable build: no assembly is linked, Enabled() stays false, and the
// tensor dispatcher keeps its scalar-unrolled defaults. The kernel stubs
// exist only so call sites guarded by Enabled() compile on every
// platform; reaching one is a dispatcher bug, hence the panic.

func unreachable() {
	panic("simd: kernel called with Enabled() == false")
}

// Axpy panics; the portable build has no assembly backend.
func Axpy(alpha float32, x, y []float32) { unreachable() }

// Add panics; the portable build has no assembly backend.
func Add(x, y []float32) { unreachable() }

// FusedElasticStep panics; the portable build has no assembly backend.
func FusedElasticStep(alpha float32, delta, local, global []float32) { unreachable() }

// FusedElasticExchange panics; the portable build has no assembly backend.
func FusedElasticExchange(alpha float32, delta, local, global []float32) { unreachable() }

// FusedAxpyCopy panics; the portable build has no assembly backend.
func FusedAxpyCopy(alpha float32, x, y, dst []float32) { unreachable() }

// FusedCopyAdd panics; the portable build has no assembly backend.
func FusedCopyAdd(x, src, dst []float32) { unreachable() }

// FusedMomentumStep panics; the portable build has no assembly backend.
func FusedMomentumStep(lr, mom, wd, clip float32, nesterov bool, w, g, v []float32) {
	unreachable()
}

// DenseRowStep panics; the portable build has no assembly backend.
func DenseRowStep(lr, mom, wd, clip float32, nesterov bool, x []float32, ldx int, gr []float32, ldg, batch int, w, v []float32) {
	unreachable()
}

// GemmInner4 panics; the portable build has no assembly backend.
func GemmInner4(a *float32, sl int, b *float32, ldb int, c *float32, n int) { unreachable() }

// GemmTile4x16 panics; the portable build has no assembly backend.
func GemmTile4x16(a *float32, sa, sl int, b *float32, ldb, k int, c *float32, ldc int) {
	unreachable()
}

// GemmTransB4x8 panics; the portable build has no assembly backend.
func GemmTransB4x8(a, b *float32, ld, k int, c *float32, ldc int) { unreachable() }

// GemmTransB1x8 panics; the portable build has no assembly backend.
func GemmTransB1x8(a, b *float32, ld, k int, c *float32) { unreachable() }

// AddConst panics; the portable build has no assembly backend.
func AddConst(y []float32, v float32) { unreachable() }

// MaskPositive panics; the portable build has no assembly backend.
func MaskPositive(dst, x, m []float32) { unreachable() }
