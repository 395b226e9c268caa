package tensor

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	tests := []struct {
		name  string
		shape []int
		want  int
	}{
		{"vector", []int{5}, 5},
		{"matrix", []int{3, 4}, 12},
		{"rank4", []int{2, 3, 4, 5}, 120},
		{"scalar-like", nil, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x := New(tt.shape...)
			if x.Len() != tt.want {
				t.Fatalf("Len() = %d, want %d", x.Len(), tt.want)
			}
			if got := x.Dims(); got != len(tt.shape) {
				t.Fatalf("Dims() = %d, want %d", got, len(tt.shape))
			}
		})
	}
}

func TestNewPanicsOnNonPositiveDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero dimension")
		}
	}()
	New(3, 0)
}

func TestFromSlice(t *testing.T) {
	x, err := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := x.At(1, 2); got != 6 {
		t.Fatalf("At(1,2) = %v, want 6", got)
	}
	if _, err := FromSlice([]float32{1, 2}, 3); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("want ErrShapeMismatch, got %v", err)
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7.5, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Row-major offset: ((1*3)+2)*4+3 = 23.
	if x.Data()[23] != 7.5 {
		t.Fatalf("flat offset wrong: %v", x.Data())
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := MustFromSlice([]float32{1, 2, 3}, 3)
	y := x.Clone()
	y.Data()[0] = 99
	if x.Data()[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := MustFromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y, err := x.Reshape(4)
	if err != nil {
		t.Fatal(err)
	}
	y.Data()[0] = 42
	if x.At(0, 0) != 42 {
		t.Fatal("Reshape must be a view")
	}
	if _, err := x.Reshape(3); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("want ErrShapeMismatch, got %v", err)
	}
}

func TestCopyFrom(t *testing.T) {
	x := New(4)
	src := MustFromSlice([]float32{1, 2, 3, 4}, 4)
	if err := x.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	if x.At(3) != 4 {
		t.Fatal("CopyFrom did not copy")
	}
	if err := x.CopyFrom(New(5)); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("want ErrShapeMismatch, got %v", err)
	}
}

func TestAxpy(t *testing.T) {
	x := MustFromSlice([]float32{1, 2, 3}, 3)
	y := MustFromSlice([]float32{10, 20, 30}, 3)
	if err := Axpy(2, x, y); err != nil {
		t.Fatal(err)
	}
	want := []float32{12, 24, 36}
	for i, w := range want {
		if y.Data()[i] != w {
			t.Fatalf("y[%d] = %v, want %v", i, y.Data()[i], w)
		}
	}
}

func TestElementwiseOps(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3}, 3)
	b := MustFromSlice([]float32{4, 5, 6}, 3)
	dst := New(3)

	if err := Add(a, b, dst); err != nil {
		t.Fatal(err)
	}
	if dst.Data()[2] != 9 {
		t.Fatalf("Add wrong: %v", dst.Data())
	}
	if err := Sub(b, a, dst); err != nil {
		t.Fatal(err)
	}
	if dst.Data()[0] != 3 {
		t.Fatalf("Sub wrong: %v", dst.Data())
	}
	if Sum(dst) != 9 {
		t.Fatalf("Sum = %v, want 9", Sum(dst))
	}
}

// TestScaleSumNorm: Sum over signed elements, before and after the vector is
// doubled in place by Axpy (x += 1·x, the aliasing AxpySlice allows).
func TestScaleSumNorm(t *testing.T) {
	x := MustFromSlice([]float32{3, -4}, 2)
	if Sum(x) != -1 {
		t.Fatalf("Sum = %v, want -1", Sum(x))
	}
	if err := Axpy(1, x, x); err != nil {
		t.Fatal(err)
	}
	if Sum(x) != -2 {
		t.Fatalf("Sum after scale = %v, want -2", Sum(x))
	}
}

func TestMatMulSmall(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := MustFromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	dst := New(2, 2)
	if err := MatMul(a, b, dst); err != nil {
		t.Fatal(err)
	}
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if dst.Data()[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, dst.Data()[i], w)
		}
	}
}

func TestMatMulShapeErrors(t *testing.T) {
	a := New(2, 3)
	b := New(4, 2)
	if err := MatMul(a, b, New(2, 2)); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("want ErrShapeMismatch, got %v", err)
	}
	if err := MatMul(New(3), b, New(2, 2)); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("want ErrShapeMismatch for 1-D operand, got %v", err)
	}
}

// TestMatMulTransposesAgainstExplicit verifies the transposed GEMM variants
// by comparing against explicitly transposed inputs to plain MatMul.
func TestMatMulTransposesAgainstExplicit(t *testing.T) {
	rng := NewRNG(1)
	const m, k, n = 4, 5, 3
	a := New(m, k)
	b := New(k, n)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)

	want := New(m, n)
	if err := MatMul(a, b, want); err != nil {
		t.Fatal(err)
	}

	at := transpose(t, a)
	got := New(m, n)
	if err := MatMulTransA(at, b, got); err != nil {
		t.Fatal(err)
	}
	assertClose(t, want, got, "MatMulTransA")

	bt := transpose(t, b)
	got2 := New(m, n)
	if err := MatMulTransB(a, bt, got2); err != nil {
		t.Fatal(err)
	}
	assertClose(t, want, got2, "MatMulTransB")
}

func transpose(t *testing.T, x *Tensor) *Tensor {
	t.Helper()
	r, c := x.Dim(0), x.Dim(1)
	out := New(c, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.Set(x.At(i, j), j, i)
		}
	}
	return out
}

func assertClose(t *testing.T, want, got *Tensor, label string) {
	t.Helper()
	for i := range want.Data() {
		if math.Abs(float64(want.Data()[i]-got.Data()[i])) > 1e-4 {
			t.Fatalf("%s element %d = %v, want %v", label, i, got.Data()[i], want.Data()[i])
		}
	}
}

// Property: Axpy with alpha then -alpha restores the original vector
// (exact in float32 when values are representable; we allow tolerance).
func TestAxpyInverseProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 1 + rng.Intn(64)
		x := New(n)
		y := New(n)
		rng.FillUniform(x, -1, 1)
		rng.FillUniform(y, -1, 1)
		orig := y.Clone()
		alpha := float32(rng.Float64())
		AxpySlice(alpha, x.Data(), y.Data())
		AxpySlice(-alpha, x.Data(), y.Data())
		for i := range y.Data() {
			if math.Abs(float64(y.Data()[i]-orig.Data()[i])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
