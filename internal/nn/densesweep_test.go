package nn

import (
	"fmt"
	"math"
	"testing"

	"shmcaffe/internal/tensor"
)

// quietNaN is the poison TestDenseSweepLeavesWeightGradsAlone writes into
// the weight-gradient views: any read of it would carry into W.
var quietNaN = math.Float32frombits(0x7fc00001)

// TestDenseSweepLeavesWeightGradsAlone: Step's one-sweep Dense update
// neither reads nor writes a Dense weight-gradient view, and NewSGDSolver
// does not clear one. Every such view is poisoned with a quiet NaN after
// NewSGDSolver; ten Steps later W and the velocities are bitwise an
// unpoisoned twin's, and the views still hold the poison. Before the
// sweep, dW += xᵀg carried the NaN into W on the first Step.
func TestDenseSweepLeavesWeightGradsAlone(t *testing.T) {
	goldenMLP := func(tb testing.TB) (*SGDSolver, *tensor.Tensor, []int) {
		net, err := MLP("golden-mlp", 12, 16, 4)
		if err != nil {
			tb.Fatal(err)
		}
		net.InitWeights(tensor.NewRNG(11))
		solver := NewSGDSolver(net, SolverConfig{BaseLR: 0.05, Momentum: 0.9, Nesterov: true, WeightDecay: 1e-3, GradClip: 0.02})
		x := tensor.New(4, 12)
		tensor.NewRNG(23).FillNormal(x, 0, 1)
		return solver, x, []int{0, 3, 1, 2}
	}
	for _, tc := range []struct {
		name  string
		build func(testing.TB) (*SGDSolver, *tensor.Tensor, []int)
	}{{"wide", wideSolver}, {"golden-mlp", goldenMLP}} {
		t.Run(tc.name, func(t *testing.T) {
			poisoned, x, labels := tc.build(t)
			twin, _, _ := tc.build(t)
			var views [][]float32
			for _, l := range poisoned.net.layers {
				if d, ok := l.(*Dense); ok {
					g := d.w.Grad.Data()
					for i := range g {
						g[i] = quietNaN
					}
					views = append(views, g)
				}
			}
			for i := 0; i < 10; i++ {
				if _, err := poisoned.Step(x, labels); err != nil {
					t.Fatal(err)
				}
				if _, err := twin.Step(x, labels); err != nil {
					t.Fatal(err)
				}
			}
			assertSameBits(t, "weights", poisoned.net.Weights(), twin.net.Weights())
			for i := range poisoned.velocity {
				assertSameBits(t, "velocity of "+poisoned.net.Params()[i].Name, poisoned.velocity[i].Data(), twin.velocity[i].Data())
			}
			for _, g := range views {
				for i, v := range g {
					if math.Float32bits(v) != math.Float32bits(quietNaN) {
						t.Fatalf("weight-gradient view element %d is %v, the poison is gone", i, v)
					}
				}
			}
		})
	}
}

// TestDenseSweepTrajectoryEquivalence is the one-sweep Dense update's row
// of the kernel contract table: Step against TrainStep + ApplyUpdate on
// twin networks, bitwise, over the layer shapes around the 4×8 a×bᵀ tile
// and the 8-lane kernels (in 1–9, 15–17; out 1, 7–9, 15–17, and 41 for
// the row kernel's 32-column body), batch 1, 4 and 16, clip on and off, Nesterov on and off, one variant with a frozen
// bias, and weights and inputs seeded with ±0, subnormals, max-finite,
// ±Inf and quiet NaN. The net is pre(5→in), ReLU, mid(in→out),
// head(out→4): mid is the swept layer under test, fed ReLU zeros and
// handing dL/dinput back; pre is a first layer, which forms none.
func TestDenseSweepTrajectoryEquivalence(t *testing.T) {
	specials := []struct {
		name string
		v    float32
	}{
		{"none", 0},
		{"zero", 0},
		{"subnormal", math.Float32frombits(0x00000003)},
		{"max-finite", math.MaxFloat32},
		{"inf", float32(math.Inf(1))},
		{"nan", defaultNaN},
	}
	ins := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17}
	outs := []int{1, 7, 8, 9, 15, 16, 17, 41}
	cases := 0
	for _, in := range ins {
		for _, out := range outs {
			for _, batch := range []int{1, 4, 16} {
				for si, sp := range specials {
					for variant := 0; variant < 5; variant++ {
						cfg := SolverConfig{BaseLR: 0.05, Momentum: 0.9, WeightDecay: 1e-3}
						if variant&1 != 0 {
							cfg.GradClip = 0.02
						}
						cfg.Nesterov = variant&2 != 0
						frozen := variant == 4
						seed := uint64(in*1000 + out*10 + si)
						tag := fmt.Sprintf("in %d out %d batch %d %s clip %v nesterov %v frozen %v", in, out, batch, sp.name, cfg.GradClip, cfg.Nesterov, frozen)
						sweepAgainstTwoPhase(t, tag, in, out, batch, seed, sp.name != "none", sp.v, frozen, cfg)
						cases++
					}
				}
			}
		}
	}
	t.Logf("%d cases, backend %s", cases, tensor.SimdBackend())
}

// defaultNaN is the quiet NaN x86 arithmetic produces (0·Inf, Inf − Inf),
// seeded as the table's NaN so that every NaN either twin holds has one
// bit pattern. Where two NaNs with different bits meet in a sum, which
// one survives depends on the kernel's operand order, and the two-phase
// path's own kernels disagree: the a×b microkernels keep the accumulator's
// NaN, axpy the product's.
var defaultNaN = math.Float32frombits(0xffc00000)

// sweepAgainstTwoPhase builds the twin networks for one table row, takes
// two steps on each and compares them bit for bit.
func sweepAgainstTwoPhase(t *testing.T, tag string, in, out, batch int, seed uint64, seeded bool, special float32, frozen bool, cfg SolverConfig) {
	t.Helper()
	build := func() *Network {
		net, err := NewNetwork("sweep", []int{5},
			NewDense("sweep/pre", 5, in), NewReLU("sweep/relu"),
			NewDense("sweep/mid", in, out), NewDense("sweep/head", out, 4))
		if err != nil {
			t.Fatal(err)
		}
		net.InitWeights(tensor.NewRNG(seed))
		if frozen {
			net.layers[2].(*Dense).b.Frozen = true
		}
		return net
	}
	swept, twoPhase := build(), build()
	rng := tensor.NewRNG(seed + 1)
	x := tensor.New(batch, 5)
	rng.FillNormal(x, 0, 1)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(4)
	}
	if seeded {
		// The same sparse pattern of ±special in the weights of both
		// twins and in the input.
		for _, vals := range [][]float32{x.Data(), swept.Weights()} {
			for i := range vals {
				if rng.Intn(8) == 0 {
					vals[i] = special
					if rng.Intn(2) == 0 && special == special {
						vals[i] = -special // a NaN keeps its one pattern
					}
				}
			}
		}
		copy(twoPhase.Weights(), swept.Weights())
	}
	fused, ref := NewSGDSolver(swept, cfg), NewSGDSolver(twoPhase, cfg)
	for step := 0; step < 2; step++ {
		lossA, err := fused.Step(x, labels)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		lossB, _, err := twoPhase.TrainStep(x, labels)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		ref.ApplyUpdate()
		if math.Float64bits(lossA) != math.Float64bits(lossB) {
			t.Fatalf("%s step %d: loss %v, two-phase %v", tag, step, lossA, lossB)
		}
	}
	assertSameBits(t, tag+": weights", swept.Weights(), twoPhase.Weights())
	for i := range fused.velocity {
		assertSameBits(t, tag+": velocity of "+swept.Params()[i].Name, fused.velocity[i].Data(), ref.velocity[i].Data())
	}
}

func assertSameBits(t *testing.T, tag string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#08x), want %v (%#08x)", tag, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}
