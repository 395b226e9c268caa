package bench

import (
	"fmt"
	"time"

	"shmcaffe/internal/nn"
	"shmcaffe/internal/perfmodel"
	"shmcaffe/internal/platform"
	"shmcaffe/internal/trace"
)

// Fig9TimeToAccuracy combines the two levels of the reproduction into the
// paper's Fig. 9 statement ("the beauty of ShmCaffe is mainly in the
// training time reduction"): the functional runs supply each platform's
// iterations-to-target-accuracy, the calibrated timing model supplies its
// per-iteration time at the given worker count, and the product is the
// projected wall-clock time to accuracy.
func Fig9TimeToAccuracy(workers int, targetAcc float64, o ConvergenceOptions, hw perfmodel.Hardware) (*trace.Table, error) {
	t := trace.New(
		fmt.Sprintf("Fig. 9: projected time to %.0f%% accuracy (Inception-v1 profile, %d workers)",
			100*targetAcc, workers),
		"Platform", "Iterations to target", "Iter time (ms)", "Projected time")

	for _, e := range fourPlatforms {
		cfg, err := o.config(workers)
		if err != nil {
			return nil, err
		}
		if e.name == "ShmCaffe" {
			cfg.GroupSize = groupSizeFor(workers)
		}
		res, err := e.tr.Train(cfg)
		if err != nil {
			return nil, fmt.Errorf("fig 9 %s: %w", e.name, err)
		}
		iters := itersToAccuracy(res, targetAcc, cfg.Workers)
		b, err := e.sim(nn.InceptionV1, workers, hw)
		if err != nil {
			return nil, err
		}
		if iters < 0 {
			t.Add(e.name, "not reached", trace.Ms(b.Iter), "-")
			continue
		}
		t.Add(e.name, trace.Itoa(iters), trace.Ms(b.Iter),
			(time.Duration(iters) * b.Iter).Round(time.Millisecond).String())
	}
	return t, nil
}

// itersToAccuracy returns the per-worker iteration count at which the
// curve first reaches the target, or -1.
func itersToAccuracy(res *platform.Result, target float64, workers int) int {
	if len(res.Curve) == 0 {
		return -1
	}
	perEpoch := res.Iterations / len(res.Curve)
	for _, pt := range res.Curve {
		if pt.Accuracy >= target {
			return pt.Epoch * perEpoch
		}
	}
	return -1
}
