package perfmodel

import (
	"math"
	"testing"

	"shmcaffe/internal/nn"
)

// TestMultiServerMatchesSingleAtOne: one striped server is the paper's
// single SMB server, to the ns.
func TestMultiServerMatchesSingleAtOne(t *testing.T) {
	hw := DefaultHardware()
	base, err := SimulateSEASGD(nn.ResNet50, 8, 30, hw, SEASGDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := SimulateSEASGD(nn.ResNet50, 8, 30, hw, SEASGDOptions{Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if multi != base {
		t.Fatalf("1-server striped %+v vs base %+v", multi, base)
	}
}

// TestZeroOptionsAreThePaperRun: a jitter model that adds no jitter, an
// update interval of 1 and a one-chunk allreduce are the paper's runs, to
// the ns.
func TestZeroOptionsAreThePaperRun(t *testing.T) {
	hw := DefaultHardware()
	quiet := StragglerModel{Seed: 7}
	base, err := SimulateSEASGD(nn.ResNet50, 8, 30, hw, SEASGDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []SEASGDOptions{{Stragglers: quiet}, {UpdateInterval: 1}} {
		if b, err := SimulateSEASGD(nn.ResNet50, 8, 30, hw, opts); err != nil || b != base {
			t.Errorf("SEASGD %+v: %+v, %v; want %+v", opts, b, err, base)
		}
	}
	ring, err := SimulateMPICaffe(nn.ResNet50, 8, 30, hw, SSGDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []SSGDOptions{{Chunks: 1}, {Stragglers: quiet}} {
		if b, err := SimulateMPICaffe(nn.ResNet50, 8, 30, hw, opts); err != nil || b != ring {
			t.Errorf("MPICaffe %+v: %+v, %v; want %+v", opts, b, err, ring)
		}
	}
}

// TestMultiServerScalesBandwidth: the paper's future-work claim — striping
// across more SMB servers must cut the communication-bound iteration time
// of a big model at 16 workers.
func TestMultiServerScalesBandwidth(t *testing.T) {
	hw := DefaultHardware()
	p := nn.InceptionResNetV2
	var prev IterBreakdown
	for i, servers := range []int{1, 2, 4} {
		b, err := SimulateSEASGD(p, 16, 30, hw, SEASGDOptions{Servers: servers})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && b.Iter >= prev.Iter {
			t.Fatalf("%d servers (%v) not faster than previous (%v)", servers, b.Iter, prev.Iter)
		}
		prev = b
	}
	// With 4 servers the 16-worker IRv2 run should no longer be
	// communication-dominated.
	if prev.CommRatio() > 0.40 {
		t.Fatalf("4-server comm ratio %.2f still dominated", prev.CommRatio())
	}
}

func TestMultiServerValidation(t *testing.T) {
	hw := DefaultHardware()
	if _, err := SimulateSEASGD(nn.VGG16, 4, 10, hw, SEASGDOptions{Servers: -1}); err == nil {
		t.Fatal("expected error for -1 servers")
	}
}

// TestStragglersHurtSSGDMoreThanSEASGD: the motivating asymmetry for
// asynchronous training (paper Sec. II): under compute jitter the
// synchronous barrier pays the slowest worker every iteration; SEASGD pays
// only its own jitter.
func TestStragglersHurtSSGDMoreThanSEASGD(t *testing.T) {
	hw := DefaultHardware()
	p := nn.InceptionV1
	m := StragglerModel{Sigma: 0.15, SlowProb: 0.05, SlowFactor: 4, Seed: 3}
	const workers = 16
	const iters = 60

	slowdown := func(sim func(StragglerModel) (IterBreakdown, error)) float64 {
		t.Helper()
		clean, err := sim(StragglerModel{})
		if err != nil {
			t.Fatal(err)
		}
		jitter, err := sim(m)
		if err != nil {
			t.Fatal(err)
		}
		return jitter.Iter.Seconds() / clean.Iter.Seconds()
	}
	ssgd := slowdown(func(m StragglerModel) (IterBreakdown, error) {
		return SimulateMPICaffe(p, workers, iters, hw, SSGDOptions{Stragglers: m})
	})
	seasgd := slowdown(func(m StragglerModel) (IterBreakdown, error) {
		return SimulateSEASGD(p, workers, iters, hw, SEASGDOptions{Stragglers: m})
	})
	if ssgd <= seasgd {
		t.Fatalf("SSGD slowdown %.3f not worse than SEASGD %.3f", ssgd, seasgd)
	}
	if ssgd < 1.05 {
		t.Fatalf("jitter model produced no SSGD penalty: %.3f", ssgd)
	}
}

func TestStragglerModelDeterministic(t *testing.T) {
	hw := DefaultHardware()
	opts := SSGDOptions{Stragglers: DefaultStragglers()}
	a, err := SimulateMPICaffe(nn.ResNet50, 8, 30, hw, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateMPICaffe(nn.ResNet50, 8, 30, hw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Iter != b.Iter {
		t.Fatalf("same-seed straggler sims differ: %v vs %v", a.Iter, b.Iter)
	}
}

// TestStragglerValidation: a jittered run validates its profile like every
// other run, and a jitter model that would hand the simulator negative,
// NaN or shrinking compute times is rejected instead of clamped.
func TestStragglerValidation(t *testing.T) {
	hw := DefaultHardware()
	seasgd := func(p nn.Profile, w, iters int, m StragglerModel) error {
		_, err := SimulateSEASGD(p, w, iters, hw, SEASGDOptions{Stragglers: m})
		return err
	}
	mpicaffe := func(p nn.Profile, w, iters int, m StragglerModel) error {
		_, err := SimulateMPICaffe(p, w, iters, hw, SSGDOptions{Stragglers: m})
		return err
	}
	for _, m := range []StragglerModel{{}, {Seed: 1}, DefaultStragglers(), {Sigma: 0.3, SlowProb: 1, SlowFactor: 1}} {
		if err := m.Validate(); err != nil {
			t.Errorf("%+v: %v", m, err)
		}
	}
	bad := []StragglerModel{
		{Sigma: -0.1},
		{Sigma: math.NaN()},
		{Sigma: math.Inf(1)},
		{SlowProb: -0.1, SlowFactor: 3},
		{SlowProb: 1.5, SlowFactor: 3},
		{SlowProb: math.NaN(), SlowFactor: 3},
		{SlowProb: 0.1, SlowFactor: 0.5},
		{SlowProb: 0.1, SlowFactor: math.NaN()},
		{SlowProb: 0.1, SlowFactor: math.Inf(1)},
	}
	for _, sim := range []func(nn.Profile, int, int, StragglerModel) error{seasgd, mpicaffe} {
		if sim(nn.Profile{}, 4, 10, DefaultStragglers()) == nil {
			t.Error("empty profile accepted under jitter")
		}
		if sim(nn.VGG16, 0, 10, DefaultStragglers()) == nil || sim(nn.VGG16, 2, 0, DefaultStragglers()) == nil {
			t.Error("zero workers or iters accepted")
		}
		for _, m := range bad {
			if m.Validate() == nil || sim(nn.VGG16, 2, 10, m) == nil {
				t.Errorf("jitter model %+v accepted", m)
			}
		}
	}
}

// TestLayerwiseOverlapHelpsMPICaffe: pipelining the allreduce behind the
// backward pass must shrink the baseline's iteration, but ShmCaffe's
// asynchronous path should still win at 16 workers on the big model.
func TestLayerwiseOverlapHelpsMPICaffe(t *testing.T) {
	hw := DefaultHardware()
	p := nn.InceptionResNetV2
	plain, err := SimulateMPICaffe(p, 16, 40, hw, SSGDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pipelined, err := SimulateMPICaffe(p, 16, 40, hw, SSGDOptions{Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if pipelined.Iter >= plain.Iter {
		t.Fatalf("layerwise %v not faster than plain %v", pipelined.Iter, plain.Iter)
	}
	shm, err := SimulateHSGD(p, []int{4, 4, 4, 4}, 40, hw)
	if err != nil {
		t.Fatal(err)
	}
	if shm.Iter >= pipelined.Iter {
		t.Logf("note: pipelined MPICaffe (%v) beats ShmCaffe-H (%v) on this model", pipelined.Iter, shm.Iter)
	}
}

func TestLayerwiseSingleWorker(t *testing.T) {
	hw := DefaultHardware()
	b, err := SimulateMPICaffe(nn.VGG16, 1, 10, hw, SSGDOptions{Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if b.Comm != 0 {
		t.Fatalf("single worker comm %v", b.Comm)
	}
	if _, err := SimulateMPICaffe(nn.VGG16, 2, 10, hw, SSGDOptions{Chunks: -1}); err == nil {
		t.Fatal("expected error for -1 chunks")
	}
}
