package tensor

import (
	"fmt"
	"math"
)

// FusedDenseStep runs the backward pass of a fully connected layer
// y = x·W + b and the momentum-SGD update of W and b (Eq. 2) in one sweep
// over the rows of W. x (batch×in) is the layer's forward input, g
// (batch×out) is dL/dy, w and vw are W and its velocity (in×out), b and vb
// the bias and its velocity (out). dx, when non-nil (batch×in), receives
// dL/dx. For each row i of W, in ascending order, the sweep:
//
//  1. writes dx[n][i] = Σ_o g[n][o]·W[i][o] for every n, from the
//     pre-update row: the serial dot product MatMulTransB computes;
//  2. forms dW[i][o] = Σ_n x[n][i]·g[n][o], summed from +0 in ascending
//     n, in a register: MatMulTransAAdd's sum into a cleared gradient;
//  3. applies clip, weight decay and (Nesterov) momentum to row i of W
//     and vw from it, exactly as FusedMomentumStep does.
//
// The bias takes step 2 and 3 with x ≡ 1 (1·g is g bit for bit, so db is
// the column sum an add loop forms). So every element of dx, W, b and the
// velocities is bitwise what MatMulTransB, MatMulTransAAdd, the bias add
// and FusedMomentumStep give on cleared gradients — on every backend and
// every input, ±0, subnormals, ±Inf and NaN included — while the weight
// gradient is never written or read.
//
// Every product is added, as IEEE arithmetic has it: a ±0 x times a
// finite g adds ±0 to a sum that started at +0, which changes no bit (so
// the two-phase row kernel may skip it), and 0·Inf or 0·NaN is NaN.
//
//shm:hotpath
func FusedDenseStep(lr, mom, wd, clip float32, nesterov bool, x, g, w, vw, b, vb, dx *Tensor) error {
	if x.Dims() != 2 || g.Dims() != 2 || w.Dims() != 2 {
		return fmt.Errorf("tensor: dense step requires 2-D x, g and w: %w", ErrShapeMismatch)
	}
	batch, in, out := x.shape[0], x.shape[1], g.shape[1]
	if g.shape[0] != batch || w.shape[0] != in || w.shape[1] != out ||
		len(vw.data) != len(w.data) || len(b.data) != out || len(vb.data) != out {
		return fmt.Errorf("tensor: dense step x %v, g %v, w %v, vw %d, b %d, vb %d: %w",
			x.shape, g.shape, w.shape, len(vw.data), len(b.data), len(vb.data), ErrShapeMismatch)
	}
	var dxd []float32
	if dx != nil {
		if dx.Dims() != 2 || dx.shape[0] != batch || dx.shape[1] != in {
			return fmt.Errorf("tensor: dense step dx %v for x %v: %w", dx.shape, x.shape, ErrShapeMismatch)
		}
		dxd = dx.data
	}
	if !(clip > 0) {
		clip = float32(math.Inf(1)) // FusedMomentumStep's normalisation
	}
	d := denseSweep{
		lr: lr, mom: mom, wd: wd, clip: clip, nesterov: nesterov,
		batch: batch, in: in, out: out,
		x: x.data, g: g.data, w: w.data, v: vw.data, dx: dxd,
	}
	d.sweep()
	d.row(biasX[:], 0, b.data, vb.data)
	return nil
}

// denseSweep carries one FusedDenseStep's operands through the row sweep.
type denseSweep struct {
	lr, mom, wd, clip float32
	nesterov          bool
	batch, in, out    int
	x, g, w, v, dx    []float32
}

// biasX is the bias row's x: 1 for every sample (read with stride 0).
var biasX = [1]float32{1}

// sweep walks the rows of W. With the a×bᵀ microkernel live, dx is formed
// eight rows at a time (gemmTransBCols8) right before those rows are
// updated, so each block of W is read from memory once and re-read from
// L1. The microkernel's last block overlaps its neighbour, and a
// recomputed element must come from pre-update rows: that block's dx runs
// first, before any row changes. Without the microkernel (portable
// backend, or a layer too narrow for its tile) all of dx is formed first,
// then the rows update.
func (d *denseSweep) sweep() {
	if d.dx != nil && gemmTransB4x8 != nil && d.in >= 8 && d.out >= 4 {
		whole := d.in &^ 7
		if whole < d.in {
			gemmTransBCols8(d.batch, d.in, d.out, d.g, d.w, d.dx, d.in-8)
		}
		for i := 0; i < whole; i += 8 {
			gemmTransBCols8(d.batch, d.in, d.out, d.g, d.w, d.dx, i)
			d.rows(i, i+8)
		}
		d.rows(whole, d.in)
		return
	}
	if d.dx != nil {
		gemmTransBTiled(d.batch, d.in, d.out, d.g, d.w, d.dx)
	}
	d.rows(0, d.in)
}

// rows updates rows lo…hi−1 of W and its velocity.
func (d *denseSweep) rows(lo, hi int) {
	for i := lo; i < hi; i++ {
		d.row(d.x[i:], d.in, d.w[i*d.out:(i+1)*d.out], d.v[i*d.out:(i+1)*d.out])
	}
}

// row updates one parameter row, whose gradient is Σ_n xs[n·ldx]·g[n][o],
// on the dispatched row kernel. The kernel reads xs and g unchecked past
// their first element: pin the last ones it reads. An empty batch (a zero
// gradient) or row reads neither and takes the portable body.
func (d *denseSweep) row(xs []float32, ldx int, w, v []float32) {
	if d.batch == 0 || len(w) == 0 {
		denseRowStepStrips(d.lr, d.mom, d.wd, d.clip, d.nesterov, xs, ldx, d.g, d.out, d.batch, w, v)
		return
	}
	_, _ = xs[(d.batch-1)*ldx], d.g[(d.batch-1)*d.out+len(w)-1]
	denseRowStepImpl(d.lr, d.mom, d.wd, d.clip, d.nesterov, xs, ldx, d.g, d.out, d.batch, w, v)
}

// denseRowStepStrips is the portable row kernel and the dispatch default.
// It forms the row's gradient a strip of 64 columns at a time, in a stack
// array, each sum from +0 with its products in ascending n as the portable
// axpy adds them, and hands the strip to the portable momentum kernel,
// which consumes it.
func denseRowStepStrips(lr, mom, wd, clip float32, nesterov bool, x []float32, ldx int, g []float32, ldg, batch int, w, v []float32) {
	var strip [64]float32
	n := min(len(w), len(v))
	for o := 0; o < n; o += len(strip) {
		e := min(o+len(strip), n)
		s := strip[:e-o]
		clear(s)
		for b := 0; b < batch; b++ {
			xv := x[b*ldx]
			for k, gv := range g[b*ldg+o : b*ldg+e] {
				s[k] += xv * gv
			}
		}
		fusedMomentumStepUnrolled(lr, mom, wd, clip, nesterov, w[o:e], s, v[o:e])
	}
}
