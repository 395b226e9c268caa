package platform

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"

	"shmcaffe/internal/core"
	"shmcaffe/internal/dataset"
	"shmcaffe/internal/nn"
)

// testConfig builds a small, fast, deterministic training setup shared by
// the platform tests: 4-class Gaussian task, MLP model.
func testConfig(t *testing.T, workers int, seed uint64) Config {
	t.Helper()
	full, err := dataset.NewGaussian(dataset.GaussianConfig{
		Classes: 4, PerClass: 60, Shape: []int{8}, Noise: 0.3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, val, err := dataset.Split(full, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	solver := nn.DefaultSolverConfig()
	solver.BaseLR = 0.05
	return Config{
		Workers:   workers,
		Model:     func(name string) (*nn.Network, error) { return nn.MLP(name, 8, 16, 4) },
		Train:     train,
		Val:       val,
		BatchSize: 8,
		Epochs:    4,
		Solver:    solver,
		Elastic:   core.DefaultElasticConfig(),
		Seed:      seed,
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := testConfig(t, 2, 1)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Workers = 0
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
	bad = cfg
	bad.Model = nil
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
	bad = cfg
	bad.GroupSize = 99
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
	bad = cfg
	bad.Workers = 100000
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig for more workers than samples, got %v", err)
	}
}

// assertLearned checks a result converged to something useful.
func assertLearned(t *testing.T, res *Result, minAcc float64) {
	t.Helper()
	if len(res.Curve) == 0 {
		t.Fatalf("%s produced no curve", res.Platform)
	}
	if res.FinalAcc < minAcc {
		t.Fatalf("%s final accuracy %.3f < %.2f (curve %+v)", res.Platform, res.FinalAcc, minAcc, res.Curve)
	}
	for _, p := range res.Curve {
		if math.IsNaN(p.ValLoss) || math.IsInf(p.ValLoss, 0) {
			t.Fatalf("%s diverged at epoch %d", res.Platform, p.Epoch)
		}
	}
}

func TestAllPlatformsConverge(t *testing.T) {
	for name, trainer := range Registry() {
		name, trainer := name, trainer
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(t, 4, 7)
			if name == "shmcaffe-h" {
				cfg.GroupSize = 2
			}
			res, err := trainer.Train(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertLearned(t, res, 0.6)
			if res.Workers != 4 {
				t.Fatalf("workers = %d", res.Workers)
			}
		})
	}
}

func TestCaffeSingleGPU(t *testing.T) {
	cfg := testConfig(t, 1, 3)
	res, err := Caffe{}.Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertLearned(t, res, 0.7)
}

// TestSynchronousBaselinesAgree: the two communication paths of the SSGD
// loop — the ring allreduce (Caffe, MPICaffe) and the master's rank-order
// reduce and broadcast (Caffe-MPI) — average the same gradients in
// different orders, so with identical seeds their epoch curves must be very
// close. This is the cross-validation of the two paths.
func TestSynchronousBaselinesAgree(t *testing.T) {
	resA, err := Caffe{}.Train(testConfig(t, 2, 11))
	if err != nil {
		t.Fatal(err)
	}
	resC, err := CaffeMPI{}.Train(testConfig(t, 2, 11))
	if err != nil {
		t.Fatal(err)
	}
	for i := range resA.Curve {
		a, c := resA.Curve[i].ValLoss, resC.Curve[i].ValLoss
		if math.Abs(a-c) > 0.05*(1+math.Abs(a)) {
			t.Fatalf("epoch %d: Caffe %.4f vs Caffe-MPI %.4f", i+1, a, c)
		}
	}
}

// resultDigest is the sha256 of a run's FinalWeights and Curve bits.
func resultDigest(res *Result) string {
	h := sha256.New()
	var b [8]byte
	for _, w := range res.FinalWeights {
		binary.LittleEndian.PutUint32(b[:4], math.Float32bits(w))
		h.Write(b[:4])
	}
	for _, p := range res.Curve {
		for _, v := range []uint64{uint64(p.Epoch), math.Float64bits(p.TrainLoss), math.Float64bits(p.ValLoss), math.Float64bits(p.Accuracy)} {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSSGDBaselineBits pins the SSGD loop's bits. The digests of the
// 3-worker Caffe-MPI and Caffe runs are those of the implementation that
// gathered Caffe-MPI's gradients as bytes and summed them at the master in
// rank order, so a change to the reduce's order moves them. MPICaffe runs
// Caffe's ring and must match it bit for bit.
func TestSSGDBaselineBits(t *testing.T) {
	train := func(tr Trainer, workers int) string {
		t.Helper()
		res, err := tr.Train(testConfig(t, workers, 11))
		if err != nil {
			t.Fatal(err)
		}
		return resultDigest(res)
	}
	for _, tc := range []struct {
		tr   Trainer
		want string
	}{
		{CaffeMPI{}, "592dac46b0021c0d32bdbd74228428f0dc65ab976cd9791223d5656f140ba1a8"},
		{Caffe{}, "ac8984b9b514f2fd994917e448254ff3d7b21fb0d2248e2e72614e0d36c4075b"},
	} {
		if got := train(tc.tr, 3); got != tc.want {
			t.Errorf("%s at 3 workers: digest %s, want %s", tc.tr.Name(), got, tc.want)
		}
	}
	for _, w := range []int{3, 4} {
		if a, m := train(Caffe{}, w), train(MPICaffe{}, w); a != m {
			t.Errorf("%d workers: MPICaffe digest %s != Caffe %s", w, m, a)
		}
	}
}

func TestShmCaffeHGroupSizeValidation(t *testing.T) {
	cfg := testConfig(t, 4, 5)
	cfg.GroupSize = 3 // 4 % 3 != 0
	if _, err := (ShmCaffeH{}).Train(cfg); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
}

// TestFig11Shape is a miniature of the paper's Fig. 11 finding: at high
// worker counts, hybrid grouping (fewer asynchronous streams) must not be
// substantially worse than fully asynchronous training, and both must
// still learn. (The full experiment is in internal/bench.)
func TestAsyncVsHybridBothLearn(t *testing.T) {
	cfgA := testConfig(t, 4, 13)
	resA, err := ShmCaffeA{}.Train(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	cfgH := testConfig(t, 4, 13)
	cfgH.GroupSize = 2
	resH, err := ShmCaffeH{}.Train(cfgH)
	if err != nil {
		t.Fatal(err)
	}
	assertLearned(t, resA, 0.55)
	assertLearned(t, resH, 0.55)
}

func TestRegistryNames(t *testing.T) {
	reg := Registry()
	if len(reg) != 5 {
		t.Fatalf("registry has %d platforms", len(reg))
	}
	for key, tr := range reg {
		if tr.Name() == "" {
			t.Fatalf("platform %q has empty name", key)
		}
	}
}

func TestIterationsPerEpoch(t *testing.T) {
	cfg := testConfig(t, 4, 1)
	// 192 train samples, batch 8, 4 workers → 6 iterations/epoch.
	if got := cfg.iterationsPerEpoch(); got != 6 {
		t.Fatalf("iterationsPerEpoch = %d, want 6", got)
	}
}

func TestMeanTail(t *testing.T) {
	if got := meanTail([]float64{1, 2, 3, 4}, 2); got != 3.5 {
		t.Fatalf("meanTail = %v", got)
	}
	if got := meanTail(nil, 3); got != 0 {
		t.Fatalf("meanTail(nil) = %v", got)
	}
	if got := meanTail([]float64{2}, 5); got != 2 {
		t.Fatalf("meanTail short = %v", got)
	}
}

func ExampleRegistry() {
	names := []string{"caffe", "caffe-mpi", "mpicaffe", "shmcaffe-a", "shmcaffe-h"}
	reg := Registry()
	for _, n := range names {
		fmt.Println(reg[n].Name())
	}
	// Output:
	// Caffe
	// Caffe-MPI
	// MPICaffe
	// ShmCaffe-A
	// ShmCaffe-H
}
