package tensor

import (
	"fmt"
	"math"
)

// Axpy computes y += alpha*x over the raw element vectors. This is the core
// kernel of every weight update in the solvers (Eqs. 2, 5, 6, 7 of the
// paper operate on flat weight vectors).
func Axpy(alpha float32, x, y *Tensor) error {
	if len(x.data) != len(y.data) {
		return fmt.Errorf("tensor: axpy %d vs %d elements: %w", len(x.data), len(y.data), ErrShapeMismatch)
	}
	AxpySlice(alpha, x.data, y.data)
	return nil
}

// AxpySlice computes y += alpha*x elementwise over raw slices.
// It is exported because the SMB accumulate path operates on byte-decoded
// float32 slices, not tensors. It dispatches through the kernel pointers
// in dispatch.go; element order matches the scalar reference (the tests'
// axpySliceScalar) exactly, so y may alias x (same backing array and
// offset) with identical results. The alpha==1 case — the SMB accumulate
// loop — routes to the plain add kernel, which is bitwise-identical
// (1*x == x exactly, including NaN quieting) and skips the broadcast
// multiply.
//
//shm:hotpath
func AxpySlice(alpha float32, x, y []float32) {
	if alpha == 1 {
		addImpl(x, y)
		return
	}
	axpyImpl(alpha, x, y)
}

// axpySliceUnrolled is the portable AxpySlice kernel, unrolled fusedLanes
// wide (see fused.go) and the dispatch default.
func axpySliceUnrolled(alpha float32, x, y []float32) {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	i := 0
	for ; i+fusedLanes <= n; i += fusedLanes {
		xv := (*lanes8)(x[i:])
		yv := (*lanes8)(y[i:])
		yv[0] += alpha * xv[0]
		yv[1] += alpha * xv[1]
		yv[2] += alpha * xv[2]
		yv[3] += alpha * xv[3]
		yv[4] += alpha * xv[4]
		yv[5] += alpha * xv[5]
		yv[6] += alpha * xv[6]
		yv[7] += alpha * xv[7]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// addSliceUnrolled is the portable alpha==1 kernel: y += x, same unroll
// and ordering as axpySliceUnrolled with the multiply folded away.
func addSliceUnrolled(x, y []float32) {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	i := 0
	for ; i+fusedLanes <= n; i += fusedLanes {
		xv := (*lanes8)(x[i:])
		yv := (*lanes8)(y[i:])
		yv[0] += xv[0]
		yv[1] += xv[1]
		yv[2] += xv[2]
		yv[3] += xv[3]
		yv[4] += xv[4]
		yv[5] += xv[5]
		yv[6] += xv[6]
		yv[7] += xv[7]
	}
	for ; i < n; i++ {
		y[i] += x[i]
	}
}

// Scale multiplies every element of t by alpha.
func Scale(alpha float32, t *Tensor) {
	for i := range t.data {
		t.data[i] *= alpha
	}
}

// Add computes dst = a + b elementwise.
func Add(a, b, dst *Tensor) error {
	if len(a.data) != len(b.data) || len(a.data) != len(dst.data) {
		return fmt.Errorf("tensor: add: %w", ErrShapeMismatch)
	}
	for i := range dst.data {
		dst.data[i] = a.data[i] + b.data[i]
	}
	return nil
}

// Sub computes dst = a - b elementwise.
func Sub(a, b, dst *Tensor) error {
	if len(a.data) != len(b.data) || len(a.data) != len(dst.data) {
		return fmt.Errorf("tensor: sub: %w", ErrShapeMismatch)
	}
	for i := range dst.data {
		dst.data[i] = a.data[i] - b.data[i]
	}
	return nil
}

// Mul computes dst = a * b elementwise (Hadamard product).
func Mul(a, b, dst *Tensor) error {
	if len(a.data) != len(b.data) || len(a.data) != len(dst.data) {
		return fmt.Errorf("tensor: mul: %w", ErrShapeMismatch)
	}
	for i := range dst.data {
		dst.data[i] = a.data[i] * b.data[i]
	}
	return nil
}

// Dot returns the inner product of a and b.
func Dot(a, b *Tensor) (float32, error) {
	if len(a.data) != len(b.data) {
		return 0, fmt.Errorf("tensor: dot: %w", ErrShapeMismatch)
	}
	var s float32
	for i := range a.data {
		s += a.data[i] * b.data[i]
	}
	return s, nil
}

// Sum returns the sum of all elements.
func Sum(t *Tensor) float32 {
	var s float32
	for _, v := range t.data {
		s += v
	}
	return s
}

// MaxIndex returns the index of the largest element in the flat data.
func MaxIndex(t *Tensor) int {
	best := 0
	for i, v := range t.data {
		if v > t.data[best] {
			best = i
		}
	}
	return best
}

// L2Norm returns the Euclidean norm of the tensor.
func L2Norm(t *Tensor) float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}
