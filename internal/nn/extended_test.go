package nn

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"shmcaffe/internal/tensor"
)

func TestSigmoidTanhValues(t *testing.T) {
	s := NewSigmoid("s")
	x := tensor.MustFromSlice([]float32{0, 100, -100}, 1, 3)
	y, err := s.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(y.Data()[0])-0.5) > 1e-6 || y.Data()[1] < 0.999 || y.Data()[2] > 0.001 {
		t.Fatalf("sigmoid %v", y.Data())
	}
	th := NewTanh("t")
	y2, err := th.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if y2.Data()[0] != 0 || y2.Data()[1] < 0.999 || y2.Data()[2] > -0.999 {
		t.Fatalf("tanh %v", y2.Data())
	}
}

// TestSmoothActivationGradients checks sigmoid/tanh backward against
// central differences (both are smooth, so the check is tight).
func TestSmoothActivationGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	for _, mk := range []func() Layer{
		func() Layer { return NewSigmoid("s") },
		func() Layer { return NewTanh("t") },
	} {
		layer := mk()
		x := tensor.New(1, 5)
		rng.FillNormal(x, 0, 1)
		y, err := layer.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		g := tensor.New(1, 5)
		g.Fill(1)
		dx, err := layer.Backward(g)
		if err != nil {
			t.Fatal(err)
		}
		_ = y
		const eps = 1e-3
		for i := 0; i < 5; i++ {
			orig := x.Data()[i]
			x.Data()[i] = orig + eps
			yp, _ := mk().Forward(x, true)
			x.Data()[i] = orig - eps
			ym, _ := mk().Forward(x, true)
			x.Data()[i] = orig
			numeric := (yp.Data()[i] - ym.Data()[i]) / (2 * eps)
			if math.Abs(float64(numeric-dx.Data()[i])) > 1e-3 {
				t.Fatalf("%s grad[%d]: analytic %v vs numeric %v",
					layer.Name(), i, dx.Data()[i], numeric)
			}
		}
	}
}

func TestBatchNormTrainStats(t *testing.T) {
	bn := NewBatchNorm("bn", 2)
	bn.initWeights(nil)
	// Channel 0: values {1,3}; channel 1: values {10,20}.
	x := tensor.MustFromSlice([]float32{1, 10, 3, 20}, 2, 2, 1, 1)
	y, err := bn.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	// Normalized channel 0: mean 2, var 1 → {-1, 1} (up to eps).
	if math.Abs(float64(y.At(0, 0, 0, 0))+1) > 1e-2 || math.Abs(float64(y.At(1, 0, 0, 0))-1) > 1e-2 {
		t.Fatalf("bn channel 0: %v %v", y.At(0, 0, 0, 0), y.At(1, 0, 0, 0))
	}
	// Eval mode uses running stats without touching them.
	before := bn.meanP.W.Data()[0]
	if _, err := bn.Forward(x, false); err != nil {
		t.Fatal(err)
	}
	if bn.meanP.W.Data()[0] != before {
		t.Fatal("eval forward mutated running stats")
	}
	// Running stats are carried as frozen parameters in the flat vector.
	frozen := 0
	for _, p := range bn.Params() {
		if p.Frozen {
			frozen++
		}
	}
	if frozen != 2 {
		t.Fatalf("batchnorm exposes %d frozen params, want 2", frozen)
	}
}

func TestBatchNormShapeErrors(t *testing.T) {
	bn := NewBatchNorm("bn", 3)
	if _, err := bn.OutShape([]int{2, 4, 4}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("want ErrBadShape, got %v", err)
	}
	if _, err := bn.Backward(tensor.New(1, 3, 2, 2)); err == nil {
		t.Fatal("expected backward-before-forward error")
	}
}

// TestBatchNormGradientCheck verifies the batchnorm backward against
// central differences through a small conv-bn-dense network.
func TestBatchNormGradientCheck(t *testing.T) {
	net, err := NewNetwork("bn-gc", []int{1, 4, 4},
		NewConv2D("c", 1, 3, 3, 1, 1),
		NewBatchNorm("bn", 3),
		NewGlobalAvgPool("gap"),
		NewFlatten("f"),
		NewDense("d", 3, 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(3)
	net.InitWeights(rng)
	x := tensor.New(3, 1, 4, 4)
	rng.FillNormal(x, 0, 1)
	labels := []int{0, 1, 0}
	net.ZeroGrads()
	if _, _, err := net.TrainStep(x, labels); err != nil {
		t.Fatal(err)
	}
	for _, p := range net.Params() {
		step := p.W.Len() / 4
		if step == 0 {
			step = 1
		}
		for i := 0; i < p.W.Len(); i += step {
			analytic := float64(p.Grad.Data()[i])
			numeric := numericalGradTrain(t, net, x, labels, p, i)
			diff := math.Abs(analytic - numeric)
			scale := math.Abs(analytic) + math.Abs(numeric) + 1e-3
			if diff/scale > 0.08 {
				t.Fatalf("param %s[%d]: analytic %v vs numeric %v", p.Name, i, analytic, numeric)
			}
		}
	}
}

// numericalGradTrain is numericalGrad with train-mode forwards, needed for
// batch-norm whose analytic gradient is defined w.r.t. batch statistics.
func numericalGradTrain(t *testing.T, net *Network, x *tensor.Tensor, labels []int, p *Param, i int) float64 {
	t.Helper()
	const eps = 1e-2
	orig := p.W.Data()[i]
	lossAt := func(v float32) float64 {
		p.W.Data()[i] = v
		logits, err := net.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		var head SoftmaxLoss
		loss, _, err := head.Forward(logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		return loss
	}
	plus := lossAt(orig + eps)
	minus := lossAt(orig - eps)
	p.W.Data()[i] = orig
	return (plus - minus) / (2 * eps)
}

// TestLRNGradientCheck verifies the LRN backward the same way.
func TestLRNGradientCheck(t *testing.T) {
	net, err := NewNetwork("lrn-gc", []int{1, 4, 4},
		NewConv2D("c", 1, 4, 3, 1, 1),
		NewLRN("lrn"),
		NewGlobalAvgPool("gap"),
		NewFlatten("f"),
		NewDense("d", 4, 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(7)
	net.InitWeights(rng)
	x := tensor.New(2, 1, 4, 4)
	rng.FillNormal(x, 0, 1)
	labels := []int{1, 0}
	net.ZeroGrads()
	if _, _, err := net.TrainStep(x, labels); err != nil {
		t.Fatal(err)
	}
	for _, p := range net.Params() {
		step := p.W.Len() / 4
		if step == 0 {
			step = 1
		}
		for i := 0; i < p.W.Len(); i += step {
			analytic := float64(p.Grad.Data()[i])
			numeric := numericalGrad(t, net, x, labels, p, i)
			diff := math.Abs(analytic - numeric)
			scale := math.Abs(analytic) + math.Abs(numeric) + 1e-3
			if diff/scale > 0.08 {
				t.Fatalf("param %s[%d]: analytic %v vs numeric %v", p.Name, i, analytic, numeric)
			}
		}
	}
}

func TestParallelConcatAndBackward(t *testing.T) {
	// Two 1×1-conv branches with identity-like kernels.
	b1 := NewConv2D("b1", 1, 1, 1, 1, 0)
	b2 := NewConv2D("b2", 1, 2, 1, 1, 0)
	par := NewParallel("par", b1, b2)
	out, err := par.OutShape([]int{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 3 || out[1] != 2 {
		t.Fatalf("parallel out shape %v", out)
	}
	b1.w.W.Fill(2) // branch 1 doubles
	b2.w.W.Fill(1) // branch 2 copies twice
	x := tensor.MustFromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	y, err := par.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if y.Dim(1) != 3 {
		t.Fatalf("concat channels %v", y.Shape())
	}
	if y.At(0, 0, 0, 0) != 2 || y.At(0, 1, 0, 0) != 1 || y.At(0, 2, 0, 0) != 1 {
		t.Fatalf("concat values %v", y.Data())
	}
	g := tensor.New(1, 3, 2, 2)
	g.Fill(1)
	dx, err := par.Backward(g)
	if err != nil {
		t.Fatal(err)
	}
	// dx = 2·g (branch1) + 1·g + 1·g (branch2's two filters) = 4 per pixel.
	if dx.At(0, 0, 0, 0) != 4 {
		t.Fatalf("parallel dx %v", dx.Data())
	}
}

func TestParallelSpatialMismatch(t *testing.T) {
	par := NewParallel("bad",
		NewConv2D("b1", 1, 1, 3, 1, 1), // preserves size
		NewConv2D("b2", 1, 1, 3, 1, 0), // shrinks by 2
	)
	if _, err := par.OutShape([]int{1, 6, 6}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("want ErrBadShape, got %v", err)
	}
}

func TestResidualIdentity(t *testing.T) {
	inner := NewConv2D("f", 1, 1, 3, 1, 1)
	inner.w.W.Zero() // F(x) = bias = 0 ⇒ y = x
	res := NewResidual("res", inner)
	x := tensor.MustFromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	y, err := res.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.Data() {
		if y.Data()[i] != x.Data()[i] {
			t.Fatalf("residual with zero F changed input: %v", y.Data())
		}
	}
	// Gradient: dy/dx = I + dF/dx; with zero weights dF/dx = 0 ⇒ dx = g.
	g := tensor.New(1, 1, 2, 2)
	g.Fill(3)
	dx, err := res.Backward(g)
	if err != nil {
		t.Fatal(err)
	}
	if dx.Data()[0] != 3 {
		t.Fatalf("residual dx %v", dx.Data())
	}
}

func TestResidualShapeGuard(t *testing.T) {
	res := NewResidual("res", NewConv2D("f", 1, 2, 3, 1, 1)) // changes channels
	if _, err := res.OutShape([]int{1, 4, 4}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("want ErrBadShape, got %v", err)
	}
}

// TestMiniModelsTrain: every miniature builds, gradchecks are covered by
// layer tests; here we verify each one learns the pattern task.
func TestMiniModelsTrain(t *testing.T) {
	builders := map[string]func() (*Network, error){
		"inception": func() (*Network, error) { return MiniInception("mi", 1, 8, 3) },
		"resnet":    func() (*Network, error) { return MiniResNet("mr", 1, 8, 3) },
		"vgg":       func() (*Network, error) { return MiniVGG("mv", 1, 8, 3) },
	}
	for name, build := range builders {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			net, err := build()
			if err != nil {
				t.Fatal(err)
			}
			rng := tensor.NewRNG(5)
			net.InitWeights(rng)
			cfg := DefaultSolverConfig()
			cfg.BaseLR = 0.05
			solver := NewSGDSolver(net, cfg)

			// Three-pattern task: constant, vertical stripes, checker.
			makeBatch := func() (*tensor.Tensor, []int) {
				const n = 6
				x := tensor.New(n, 1, 8, 8)
				labels := make([]int, n)
				for s := 0; s < n; s++ {
					cls := rng.Intn(3)
					labels[s] = cls
					for i := 0; i < 8; i++ {
						for j := 0; j < 8; j++ {
							var v float32
							switch cls {
							case 0:
								v = 1
							case 1:
								if j%2 == 0 {
									v = 1
								} else {
									v = -1
								}
							default:
								if (i+j)%2 == 0 {
									v = 1
								} else {
									v = -1
								}
							}
							x.Set(v+float32(0.1*rng.NormFloat64()), s, 0, i, j)
						}
					}
				}
				return x, labels
			}
			var first, last float64
			for iter := 0; iter < 60; iter++ {
				x, labels := makeBatch()
				loss, err := solver.Step(x, labels)
				if err != nil {
					t.Fatal(err)
				}
				if iter == 0 {
					first = loss
				}
				last = loss
			}
			if last >= first*0.8 {
				t.Fatalf("%s miniature did not learn: %v -> %v", name, first, last)
			}
		})
	}
}

func TestLRPolicies(t *testing.T) {
	base := SolverConfig{BaseLR: 1, Gamma: 0.5, Power: 2, StepSize: 10, MaxIteration: 100}
	tests := []struct {
		policy LRPolicy
		iter   int
		want   float64
	}{
		{LRFixed, 50, 1},
		{LRStep, 25, 0.25},
		{LRExp, 2, 0.25},
		{LRInv, 2, 1 / 4.0}, // (1+0.5·2)^-2 = 2^-2
		{LRPoly, 50, 0.25},  // (1-0.5)^2
		{LRPoly, 200, 0},    // clamped past max_iter
	}
	for _, tt := range tests {
		cfg := base
		cfg.Policy = tt.policy
		if got := cfg.LearningRate(tt.iter); math.Abs(got-tt.want) > 1e-9 {
			t.Fatalf("%s at %d = %v, want %v", tt.policy, tt.iter, got, tt.want)
		}
	}
	bad := base
	bad.Policy = "cosine"
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

func TestNesterovLearns(t *testing.T) {
	net, err := MLP("nag", 2, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(9)
	net.InitWeights(rng)
	cfg := DefaultSolverConfig()
	cfg.BaseLR = 0.05
	cfg.Nesterov = true
	solver := NewSGDSolver(net, cfg)
	var first, last float64
	for iter := 0; iter < 80; iter++ {
		x := tensor.New(8, 2)
		labels := make([]int, 8)
		for i := 0; i < 8; i++ {
			cls := rng.Intn(2)
			labels[i] = cls
			x.Data()[2*i] = float32(2*cls-1) + float32(0.2*rng.NormFloat64())
			x.Data()[2*i+1] = float32(1-2*cls) + float32(0.2*rng.NormFloat64())
		}
		loss, err := solver.Step(x, labels)
		if err != nil {
			t.Fatal(err)
		}
		if iter == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first*0.5 {
		t.Fatalf("nesterov did not learn: %v -> %v", first, last)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	net, err := SmallCNN("ckpt", 1, 8, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(tensor.NewRNG(3))
	want := net.FlatWeights(nil)

	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, net); err != nil {
		t.Fatal(err)
	}
	restored, err := SmallCNN("ckpt2", 1, 8, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	name, err := LoadCheckpoint(&buf, restored)
	if err != nil {
		t.Fatal(err)
	}
	if name != "ckpt" {
		t.Fatalf("saved name %q", name)
	}
	got := restored.FlatWeights(nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("weight %d differs after checkpoint round trip", i)
		}
	}
}

func TestCheckpointErrors(t *testing.T) {
	net, _ := MLP("x", 4, 4, 2)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, net); err != nil {
		t.Fatal(err)
	}
	other, _ := MLP("y", 8, 4, 2) // different param count
	if _, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), other); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("want ErrBadCheckpoint, got %v", err)
	}
	if _, err := LoadCheckpoint(bytes.NewReader([]byte("garbage header")), net); err == nil {
		t.Fatal("expected error for garbage input")
	}
}

// trainSteps drives n solver steps on deterministic data.
func trainSteps(t *testing.T, solver *SGDSolver, rng *tensor.RNG, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		x := tensor.New(4, 4)
		rng.FillNormal(x, 0, 1)
		labels := []int{0, 1, 0, 1}
		if _, err := solver.Step(x, labels); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWeightOnlyCheckpointIsNotEnough: a checkpoint holds the weights only,
// so a run restored from one (cold momentum, reset iteration and LR
// schedule) diverges from the uninterrupted run.
func TestWeightOnlyCheckpointIsNotEnough(t *testing.T) {
	build := func() (*Network, *SGDSolver) {
		net, _ := MLP("wo", 4, 8, 2)
		net.InitWeights(tensor.NewRNG(1))
		cfg := DefaultSolverConfig()
		cfg.BaseLR = 0.05
		cfg.StepSize = 12
		cfg.Gamma = 0.5
		return net, NewSGDSolver(net, cfg)
	}
	netA, solverA := build()
	rngA := tensor.NewRNG(7)
	trainSteps(t, solverA, rngA, 10)
	var weightsOnly bytes.Buffer
	if err := SaveCheckpoint(&weightsOnly, netA); err != nil {
		t.Fatal(err)
	}
	trainSteps(t, solverA, rngA, 10)
	want := netA.FlatWeights(nil)

	netB, solverB := build()
	if _, err := LoadCheckpoint(bytes.NewReader(weightsOnly.Bytes()), netB); err != nil {
		t.Fatal(err)
	}
	rngB := tensor.NewRNG(7)
	for i := 0; i < 10; i++ {
		x := tensor.New(4, 4)
		rngB.FillNormal(x, 0, 1)
	}
	trainSteps(t, solverB, rngB, 10)
	got := netB.FlatWeights(nil)

	same := true
	for i := range want {
		if want[i] != got[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("weight-only restore unexpectedly matched the full-state run")
	}
}
