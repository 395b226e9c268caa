package perfmodel

import (
	"math"
	"testing"
	"time"

	"shmcaffe/internal/nn"
)

func TestHardwareValidate(t *testing.T) {
	hw := DefaultHardware()
	if err := hw.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := hw
	bad.HCAEfficiency = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for efficiency > 1")
	}
	bad = hw
	bad.MPISoftwareFactor = 0.5
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for MPI factor < 1")
	}
}

func TestEffectiveHCAMatchesPaper(t *testing.T) {
	hw := DefaultHardware()
	// 96 % of 7 GB/s = 6.72 GB/s — the Fig. 7 saturation level.
	if got := hw.EffectiveHCA(); math.Abs(got-6.72e9) > 1e6 {
		t.Fatalf("effective HCA %v, want 6.72e9", got)
	}
}

func TestSingleGPUIsComputeOnly(t *testing.T) {
	hw := DefaultHardware()
	for _, p := range nn.PaperModels() {
		b, err := SimulateCaffe(p, 1, 10, hw)
		if err != nil {
			t.Fatal(err)
		}
		if b.Iter != p.CompTime || b.Comm != 0 {
			t.Fatalf("%s single GPU: %+v", p.Name, b)
		}
	}
}

// TestSEASGDSingleWorkerMatchesEq8: with no contention the DES must agree
// with the analytic Eq. (8) model within a few percent.
func TestSEASGDSingleWorkerMatchesEq8(t *testing.T) {
	hw := DefaultHardware()
	for _, p := range nn.PaperModels() {
		sim, err := SimulateSEASGD(p, 1, 30, hw, SEASGDOptions{})
		if err != nil {
			t.Fatal(err)
		}
		analytic := eq8(hw, p)
		diff := math.Abs(sim.Iter.Seconds() - analytic.Iter.Seconds())
		if diff/analytic.Iter.Seconds() > 0.06 {
			t.Fatalf("%s: DES %v vs Eq8 %v", p.Name, sim.Iter, analytic.Iter)
		}
	}
}

// TestInceptionV1CommRatios reproduces the paper's headline SEASGD ratios
// (Sec. IV-E): Inception-v1 communication share is modest at 8 GPUs
// (paper: 16.3 %) and grows at 16 GPUs (paper: 26 %).
func TestInceptionV1CommRatios(t *testing.T) {
	hw := DefaultHardware()
	b8, err := SimulateSEASGD(nn.InceptionV1, 8, 40, hw, SEASGDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b16, err := SimulateSEASGD(nn.InceptionV1, 16, 40, hw, SEASGDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r := b8.CommRatio(); r < 0.05 || r > 0.35 {
		t.Fatalf("8-GPU comm ratio %.3f outside paper band", r)
	}
	if r := b16.CommRatio(); r < 0.15 || r > 0.45 {
		t.Fatalf("16-GPU comm ratio %.3f outside paper band", r)
	}
	if b16.CommRatio() <= b8.CommRatio() {
		t.Fatalf("comm ratio must grow with workers: %.3f vs %.3f",
			b8.CommRatio(), b16.CommRatio())
	}
}

// TestVGG16IsCommBoundAtTwoWorkers reproduces the paper's VGG16 finding:
// even at 2 workers, one iteration (941.8 ms measured) costs more than two
// single-GPU iterations (389.8 ms), i.e. multi-node scaling is a loss.
func TestVGG16IsCommBoundAtTwoWorkers(t *testing.T) {
	hw := DefaultHardware()
	b, err := SimulateSEASGD(nn.VGG16, 2, 30, hw, SEASGDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Iter <= 2*nn.VGG16.CompTime {
		t.Fatalf("VGG16 2-worker iteration %v should exceed two compute times %v",
			b.Iter, 2*nn.VGG16.CompTime)
	}
	if r := b.CommRatio(); r < 0.5 {
		t.Fatalf("VGG16 comm ratio %.3f, paper shows >50%%", r)
	}
}

// TestShmCaffeBeatsBaselinesAt16GPUs reproduces the paper's headline
// (Fig. 9/10, Table II): at 16 GPUs ShmCaffe's iteration is faster than
// Caffe-MPI's and MPICaffe's, and its exposed communication is several
// times smaller than Caffe-MPI's (paper: 5.3×).
func TestShmCaffeBeatsBaselinesAt16GPUs(t *testing.T) {
	hw := DefaultHardware()
	p := nn.InceptionV1
	shm, err := SimulateSEASGD(p, 16, 40, hw, SEASGDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cmpi, err := SimulateCaffeMPI(p, 16, 40, hw)
	if err != nil {
		t.Fatal(err)
	}
	mpic, err := SimulateMPICaffe(p, 16, 40, hw, SSGDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if shm.Iter >= cmpi.Iter {
		t.Fatalf("ShmCaffe %v not faster than Caffe-MPI %v", shm.Iter, cmpi.Iter)
	}
	if shm.Iter >= mpic.Iter {
		t.Fatalf("ShmCaffe %v not faster than MPICaffe %v", shm.Iter, mpic.Iter)
	}
	commRatio := cmpi.Comm.Seconds() / shm.Comm.Seconds()
	if commRatio < 3 || commRatio > 9 {
		t.Fatalf("Caffe-MPI/ShmCaffe comm ratio %.1f outside the paper's ~5.3 band", commRatio)
	}
}

// TestTable2TrainingTimes reproduces Table II anchors: Caffe 1-GPU trains
// Inception-v1 for 15 epochs in ≈23 h; ShmCaffe at 16 GPUs is ≈10× faster
// than that (paper: 10.1×).
func TestTable2TrainingTimes(t *testing.T) {
	hw := DefaultHardware()
	p := nn.InceptionV1
	caffe1, err := SimulateCaffe(p, 1, 10, hw)
	if err != nil {
		t.Fatal(err)
	}
	t1 := TrainingTime(caffe1, p, ImageNetTrainSize, 15, 1)
	if t1 < 22*time.Hour || t1 > 24*time.Hour {
		t.Fatalf("Caffe 1-GPU 15 epochs = %v, paper: 22h59m", t1)
	}
	shm16, err := SimulateSEASGD(p, 16, 40, hw, SEASGDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t16 := TrainingTime(shm16, p, ImageNetTrainSize, 15, 16)
	speedup := t1.Seconds() / t16.Seconds()
	if speedup < 7 || speedup > 14 {
		t.Fatalf("ShmCaffe-16 speedup over Caffe-1 = %.1f, paper: 10.1", speedup)
	}
}

// TestCaffeSingleNodeScalability reproduces Table II's Caffe rows: ~2.7×
// at 8 GPUs and *worse* (~2.3×) at 16 GPUs in one box.
func TestCaffeSingleNodeScalability(t *testing.T) {
	hw := DefaultHardware()
	p := nn.InceptionV1
	b1, _ := SimulateCaffe(p, 1, 10, hw)
	b8, err := SimulateCaffe(p, 8, 30, hw)
	if err != nil {
		t.Fatal(err)
	}
	b16, err := SimulateCaffe(p, 16, 30, hw)
	if err != nil {
		t.Fatal(err)
	}
	t1 := TrainingTime(b1, p, ImageNetTrainSize, 15, 1)
	t8 := TrainingTime(b8, p, ImageNetTrainSize, 15, 8)
	t16 := TrainingTime(b16, p, ImageNetTrainSize, 15, 16)
	s8 := t1.Seconds() / t8.Seconds()
	s16 := t1.Seconds() / t16.Seconds()
	if s8 < 2.0 || s8 > 3.5 {
		t.Fatalf("Caffe 8-GPU scalability %.2f, paper: 2.7", s8)
	}
	if s16 >= s8 {
		t.Fatalf("Caffe must degrade from 8 to 16 GPUs: %.2f vs %.2f (paper: 2.7 → 2.3)", s8, s16)
	}
}

// TestHSGDReducesCommVsSEASGD reproduces the Fig. 15 finding: for the big
// Inception-ResNet-v2 model at 16 GPUs, hybrid grouping cuts the exposed
// communication dramatically (paper: ratio 65 % → 30.7 %).
func TestHSGDReducesCommVsSEASGD(t *testing.T) {
	hw := DefaultHardware()
	p := nn.InceptionResNetV2
	async, err := SimulateSEASGD(p, 16, 30, hw, SEASGDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := SimulateHSGD(p, []int{4, 4, 4, 4}, 30, hw)
	if err != nil {
		t.Fatal(err)
	}
	if async.CommRatio() < 0.45 {
		t.Fatalf("SEASGD 16-GPU comm ratio %.2f, paper shows ≫50%%", async.CommRatio())
	}
	if hybrid.CommRatio() > 0.45 {
		t.Fatalf("HSGD comm ratio %.2f, paper shows ≈30%%", hybrid.CommRatio())
	}
	if hybrid.Iter >= async.Iter {
		t.Fatalf("HSGD iteration %v not faster than SEASGD %v at 16 GPUs", hybrid.Iter, async.Iter)
	}
}

// TestFig7BandwidthSaturation reproduces Fig. 7: aggregate bandwidth grows
// with process count and saturates at ≈6.7 GB/s (96 % of the HCA).
func TestFig7BandwidthSaturation(t *testing.T) {
	hw := DefaultHardware()
	var prev float64
	for _, n := range []int{2, 4, 8, 16, 32} {
		bw, err := SimulateSMBBandwidth(n, 1e9, 16e6, hw)
		if err != nil {
			t.Fatal(err)
		}
		if bw < prev*0.98 {
			t.Fatalf("aggregate bandwidth decreased at n=%d: %v after %v", n, bw, prev)
		}
		prev = bw
	}
	if prev < 6.5e9 || prev > 6.8e9 {
		t.Fatalf("saturated bandwidth %.2f GB/s, paper: 6.7", prev/1e9)
	}
	// Low concurrency must NOT saturate (the Fig. 7 ramp).
	low, err := SimulateSMBBandwidth(2, 1e9, 16e6, hw)
	if err != nil {
		t.Fatal(err)
	}
	if low > 4e9 {
		t.Fatalf("2-process bandwidth %.2f GB/s already saturated", low/1e9)
	}
}

func TestEq8HiddenVsExposed(t *testing.T) {
	hw := DefaultHardware()
	// Inception-v1: push (53 MB write + accumulate) is far below the
	// 257 ms compute, so Eq. (8) hides it: iteration = comp + read + ulw.
	b := eq8(hw, nn.InceptionV1)
	wantComm := b.Iter - nn.InceptionV1.CompTime
	if b.Comm != wantComm {
		t.Fatalf("comm %v, want %v", b.Comm, wantComm)
	}
	if b.Comm > 60*time.Millisecond {
		t.Fatalf("Inception-v1 exposed comm %v too large for a lone worker", b.Comm)
	}
	// VGG16: push exceeds compute, so the hidden phase dominates.
	v := eq8(hw, nn.VGG16)
	if v.Iter <= vggPushTime(hw) {
		t.Fatalf("VGG16 Eq8 iter %v should exceed its push time", v.Iter)
	}
	if v.CommRatio() < 0.5 {
		t.Fatalf("VGG16 Eq8 comm ratio %.2f, want >0.5", v.CommRatio())
	}
}

// eq8 is Eq. (8)'s iteration as an IterBreakdown.
func eq8(hw Hardware, p nn.Profile) IterBreakdown {
	c := hw.Eq8Decompose(p)
	return IterBreakdown{Iter: c.Iter, Comp: c.Comp, Comm: c.Iter - c.Comp}
}

func vggPushTime(hw Hardware) time.Duration {
	return time.Duration(float64(nn.VGG16.ParamBytes)/hw.PerFlowCap*float64(time.Second)) +
		hw.accumTime(float64(nn.VGG16.ParamBytes))
}

func TestTrainingTimeScaling(t *testing.T) {
	b := IterBreakdown{Iter: 100 * time.Millisecond, Comp: 100 * time.Millisecond}
	p := nn.InceptionV1 // batch 60
	tt := TrainingTime(b, p, 60000, 2, 10)
	// 60000/(60*10) = 100 iters/epoch × 2 epochs × 100ms = 20 s.
	if tt != 20*time.Second {
		t.Fatalf("TrainingTime = %v, want 20s", tt)
	}
}

func TestSimulateValidation(t *testing.T) {
	hw := DefaultHardware()
	if _, err := SimulateSEASGD(nn.VGG16, 0, 10, hw, SEASGDOptions{}); err == nil {
		t.Fatal("expected error for 0 workers")
	}
	if _, err := SimulateCaffe(nn.VGG16, 2, 0, hw); err == nil {
		t.Fatal("expected error for 0 iters")
	}
	if _, err := SimulateHSGD(nn.VGG16, nil, 10, hw); err == nil {
		t.Fatal("expected error for no groups")
	}
	if _, err := SimulateHSGD(nn.VGG16, []int{0}, 10, hw); err == nil {
		t.Fatal("expected error for empty group")
	}
	if _, err := SimulateSMBBandwidth(0, 1e9, 1e6, hw); err == nil {
		t.Fatal("expected error for 0 processes")
	}
}
