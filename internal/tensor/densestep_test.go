package tensor

import (
	"fmt"
	"math"
	"testing"
)

// TestFusedDenseStepOffsets pins FusedDenseStep against its two-phase
// spelling — MatMulTransB for dx, MatMulTransAAdd into a cleared dW, the
// bias column sums added into a cleared db, then FusedMomentumStep on
// both — bit for bit, with every operand a view at a float offset of 0–7
// into its backing array, over shapes on both sides of the 4×8 a×bᵀ tile
// and the 8-lane kernels (out 41 takes the row kernel's 32-, 8- and
// 1-column bodies), with and without dx, clip and Nesterov, and x,
// g, W and the velocities seeded with ±0, subnormals, max-finite, ±Inf
// and the one NaN pattern x86 arithmetic produces.
func TestFusedDenseStepOffsets(t *testing.T) {
	specials := []float32{0, math.Float32frombits(0x00000003), math.MaxFloat32, float32(math.Inf(1)), math.Float32frombits(0xffc00000)}
	rng := NewRNG(5)
	cases := 0
	for _, batch := range []int{1, 3, 4, 16} {
		for _, in := range []int{1, 7, 8, 9, 17} {
			for _, out := range []int{1, 4, 8, 9, 17, 41} {
				for off := 0; off < 8; off++ {
					for mode := -1; mode < len(specials); mode++ {
						variant := (off + mode + 1) & 7
						clip := float32(0)
						if variant&1 != 0 {
							clip = 0.5
						}
						nesterov, withDX := variant&2 != 0, variant&4 == 0
						tag := fmt.Sprintf("batch %d in %d out %d off %d mode %d clip %v nesterov %v dx %v", batch, in, out, off, mode, clip, nesterov, withDX)
						// Operand j sits j·3 floats further along, wrapping at 8.
						view := func(j, n int, vals []float32) []float32 {
							o := (off + 3*j) % 8
							buf := make([]float32, o+n)
							copy(buf[o:], vals)
							return buf[o : o+n : o+n]
						}
						fill := func(n int, std float64) []float32 {
							v := make([]float32, n)
							for i := range v {
								v[i] = float32(rng.NormFloat64() * std)
								if mode >= 0 && rng.Intn(6) == 0 {
									v[i] = specials[mode]
									if rng.Intn(2) == 0 && v[i] == v[i] {
										v[i] = -v[i]
									}
								}
							}
							return v
						}
						x, g := fill(batch*in, 1), fill(batch*out, 0.1)
						w, vw := fill(in*out, 0.5), fill(in*out, 0.01)
						b, vb := fill(out, 0.5), fill(out, 0.01)

						// The two-phase reference.
						wantW, wantVW := append([]float32(nil), w...), append([]float32(nil), vw...)
						wantB, wantVB := append([]float32(nil), b...), append([]float32(nil), vb...)
						wantDX := make([]float32, batch*in)
						must(t, MatMulTransB(MustFromSlice(g, batch, out), MustFromSlice(w, in, out), MustFromSlice(wantDX, batch, in)))
						dW := make([]float32, in*out)
						must(t, MatMulTransAAdd(MustFromSlice(x, batch, in), MustFromSlice(g, batch, out), MustFromSlice(dW, in, out)))
						db := make([]float32, out)
						for n := 0; n < batch; n++ {
							AxpySlice(1, g[n*out:(n+1)*out], db)
						}
						FusedMomentumStep(0.05, 0.9, 1e-3, clip, nesterov, wantW, dW, wantVW)
						FusedMomentumStep(0.05, 0.9, 1e-3, clip, nesterov, wantB, db, wantVB)

						gotW, gotVW := view(2, in*out, w), view(3, in*out, vw)
						gotB, gotVB := view(4, out, b), view(5, out, vb)
						var dx *Tensor
						if withDX {
							dx = MustFromSlice(view(6, batch*in, nil), batch, in)
						}
						must(t, FusedDenseStep(0.05, 0.9, 1e-3, clip, nesterov,
							MustFromSlice(view(0, batch*in, x), batch, in), MustFromSlice(view(1, batch*out, g), batch, out),
							MustFromSlice(gotW, in, out), MustFromSlice(gotVW, in, out),
							MustFromSlice(gotB, out), MustFromSlice(gotVB, out), dx))
						assertBitwise(t, tag+" w", gotW, wantW)
						assertBitwise(t, tag+" vw", gotVW, wantVW)
						assertBitwise(t, tag+" b", gotB, wantB)
						assertBitwise(t, tag+" vb", gotVB, wantVB)
						if withDX {
							assertBitwise(t, tag+" dx", dx.Data(), wantDX)
						}
						cases++
					}
				}
			}
		}
	}
	t.Logf("%d cases, backend %s", cases, SimdBackend())
}

// TestFusedDenseStepRejectsShapes: a mismatched operand is an error, not a
// partial update.
func TestFusedDenseStepRejectsShapes(t *testing.T) {
	x, g := New(2, 3), New(2, 4)
	w, vw, b, vb := New(3, 4), New(3, 4), New(4), New(4)
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"good", FusedDenseStep(0.1, 0.9, 0, 0, false, x, g, w, vw, b, vb, New(2, 3))},
		{"g batch", FusedDenseStep(0.1, 0.9, 0, 0, false, x, New(3, 4), w, vw, b, vb, nil)},
		{"w rows", FusedDenseStep(0.1, 0.9, 0, 0, false, x, g, New(4, 4), New(4, 4), b, vb, nil)},
		{"vw", FusedDenseStep(0.1, 0.9, 0, 0, false, x, g, w, New(3, 3), b, vb, nil)},
		{"b", FusedDenseStep(0.1, 0.9, 0, 0, false, x, g, w, vw, New(3), vb, nil)},
		{"dx", FusedDenseStep(0.1, 0.9, 0, 0, false, x, g, w, vw, b, vb, New(2, 4))},
		{"1-D x", FusedDenseStep(0.1, 0.9, 0, 0, false, New(6), g, w, vw, b, vb, nil)},
	} {
		if (tc.err == nil) != (tc.name == "good") {
			t.Errorf("%s: err %v", tc.name, tc.err)
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
