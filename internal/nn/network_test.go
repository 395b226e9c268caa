package nn

import (
	"math"
	"testing"
	"testing/quick"

	"shmcaffe/internal/tensor"
)

func TestNewNetworkValidatesShapes(t *testing.T) {
	// Dense expecting 10 features after a conv producing 4*2*2=16: error.
	_, err := NewNetwork("bad", []int{1, 4, 4},
		NewConv2D("c", 1, 4, 3, 1, 1),
		NewMaxPool2D("p", 2, 2),
		NewFlatten("f"),
		NewDense("d", 10, 3),
	)
	if err == nil {
		t.Fatal("expected shape validation error")
	}
	if _, err := NewNetwork("empty", []int{4}); err == nil {
		t.Fatal("expected error for empty network")
	}
}

func TestFlatWeightsRoundTrip(t *testing.T) {
	net, err := MLP("rt", 4, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(tensor.NewRNG(1))
	w := net.FlatWeights(nil)
	if len(w) != net.NumParams() {
		t.Fatalf("flat len %d, want %d", len(w), net.NumParams())
	}
	// Perturb and restore.
	w2 := make([]float32, len(w))
	for i := range w2 {
		w2[i] = float32(i)
	}
	if err := net.SetFlatWeights(w2); err != nil {
		t.Fatal(err)
	}
	got := net.FlatWeights(nil)
	for i := range got {
		if got[i] != w2[i] {
			t.Fatalf("flat round trip [%d] = %v, want %v", i, got[i], w2[i])
		}
	}
	if err := net.SetFlatWeights(w2[:3]); err == nil {
		t.Fatal("expected error for short weight vector")
	}
	// A reused full-size dst is filled in place; a short one is rejected
	// rather than silently replaced (callers ignore the return value).
	if into := net.FlatWeights(w); &into[0] != &w[0] || into[1] != w2[1] {
		t.Fatal("FlatWeights did not fill the dst it was given")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short non-nil dst")
		}
	}()
	net.FlatWeights(w[:3])
}

func TestFlatGradsRoundTrip(t *testing.T) {
	net, err := MLP("g", 4, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(2)
	net.InitWeights(rng)
	x := tensor.New(2, 4)
	rng.FillNormal(x, 0, 1)
	net.ZeroGrads()
	if _, _, err := net.TrainStep(x, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	g := net.FlatGrads(nil)
	var nonzero int
	for _, v := range g {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("gradients all zero after TrainStep")
	}
	net.ZeroGrads()
	if err := net.SetFlatGrads(g); err != nil {
		t.Fatal(err)
	}
	g2 := net.FlatGrads(nil)
	for i := range g {
		if g[i] != g2[i] {
			t.Fatal("SetFlatGrads/FlatGrads round trip broken")
		}
	}
}

// TestSameSeedSameWeights: two replicas initialized with the same seed are
// bit-identical — the property the master relies on when seeding Wg.
func TestSameSeedSameWeights(t *testing.T) {
	a, _ := SmallCNN("a", 1, 8, 4, 0)
	b, _ := SmallCNN("b", 1, 8, 4, 0)
	a.InitWeights(tensor.NewRNG(77))
	b.InitWeights(tensor.NewRNG(77))
	wa := a.FlatWeights(nil)
	wb := b.FlatWeights(nil)
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatal("same-seed replicas differ")
		}
	}
}

// TestSGDLearnsXORishTask trains the MLP on a small linearly separable task
// and checks the loss decreases — the end-to-end sanity check of the solver.
func TestSGDLearnsSeparableTask(t *testing.T) {
	net, err := MLP("learn", 2, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(3)
	net.InitWeights(rng)
	cfg := DefaultSolverConfig()
	cfg.BaseLR = 0.05
	solver := NewSGDSolver(net, cfg)

	const batch = 16
	makeBatch := func() (*tensor.Tensor, []int) {
		x := tensor.New(batch, 2)
		labels := make([]int, batch)
		for i := 0; i < batch; i++ {
			cls := rng.Intn(2)
			labels[i] = cls
			cx := float64(2*cls - 1) // class centers at ±1
			x.Data()[2*i] = float32(cx + 0.3*rng.NormFloat64())
			x.Data()[2*i+1] = float32(-cx + 0.3*rng.NormFloat64())
		}
		return x, labels
	}

	var first, last float64
	for iter := 0; iter < 120; iter++ {
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
	if last >= first*0.5 {
		t.Fatalf("loss did not halve: first %v, last %v", first, last)
	}

	x, labels := makeBatch()
	_, acc, err := net.Evaluate(x, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Fatalf("accuracy %v < 0.8 after training", acc)
	}
}

func TestLearningRateStepPolicy(t *testing.T) {
	cfg := SolverConfig{BaseLR: 0.1, Gamma: 0.1, StepSize: 100}
	tests := []struct {
		iter int
		want float64
	}{
		{0, 0.1}, {99, 0.1}, {100, 0.01}, {250, 0.001},
	}
	for _, tt := range tests {
		if got := cfg.LearningRate(tt.iter); math.Abs(got-tt.want) > 1e-12 {
			t.Fatalf("LR(%d) = %v, want %v", tt.iter, got, tt.want)
		}
	}
	// StepSize 0 disables the policy.
	cfg.StepSize = 0
	if got := cfg.LearningRate(1000); got != 0.1 {
		t.Fatalf("LR with no policy = %v, want 0.1", got)
	}
}

func TestSolverConfigValidate(t *testing.T) {
	good := DefaultSolverConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.BaseLR = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero LR")
	}
	bad = good
	bad.Momentum = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for momentum 1")
	}
	bad = good
	bad.WeightDecay = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for negative decay")
	}
}

func TestProfiles(t *testing.T) {
	models := PaperModels()
	if len(models) != 4 {
		t.Fatalf("expected 4 paper models, got %d", len(models))
	}
	for _, m := range models {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// The paper's key size relationships.
	if !(VGG16.ParamBytes > InceptionResNetV2.ParamBytes &&
		InceptionResNetV2.ParamBytes > ResNet50.ParamBytes &&
		ResNet50.ParamBytes > InceptionV1.ParamBytes) {
		t.Fatal("model size ordering violated")
	}
	p, err := ProfileByName("vgg16")
	if err != nil || p.Name != "vgg16" {
		t.Fatalf("ProfileByName: %v %v", p, err)
	}
	if _, err := ProfileByName("alexnet"); err == nil {
		t.Fatal("expected error for unknown profile")
	}
	if InceptionResNetV2.ParamMB() != 214 {
		t.Fatalf("InceptionResNetV2 = %v MB, want 214 (paper Sec. IV-E)", InceptionResNetV2.ParamMB())
	}
}

// Property: SetFlatWeights(FlatWeights()) is the identity for any weight
// assignment.
func TestFlatWeightsProperty(t *testing.T) {
	net, err := TinyConvNet("prop", 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		w := make([]float32, net.NumParams())
		for i := range w {
			w[i] = float32(rng.NormFloat64())
		}
		if err := net.SetFlatWeights(w); err != nil {
			return false
		}
		got := net.FlatWeights(nil)
		for i := range w {
			if got[i] != w[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
