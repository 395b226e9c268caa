package bench

import (
	"fmt"

	"shmcaffe/internal/nn"
	"shmcaffe/internal/perfmodel"
	"shmcaffe/internal/trace"
)

// FutureWorkMultiServer quantifies the paper's Sec. V future work: striping
// the parameter vector across multiple SMB servers. Rows show the 16-worker
// iteration time of the two largest models as the server count grows.
func FutureWorkMultiServer(hw perfmodel.Hardware) (*trace.Table, error) {
	t := trace.New("Future work: multiple SMB servers (16 workers)",
		"Model", "Servers", "Iter (ms)", "Comm (ms)", "Comm ratio")
	for _, p := range []nn.Profile{nn.InceptionResNetV2, nn.VGG16} {
		for _, servers := range []int{1, 2, 4, 8} {
			b, err := perfmodel.SimulateSEASGD(p, 16, simIters, hw, perfmodel.SEASGDOptions{Servers: servers})
			if err != nil {
				return nil, fmt.Errorf("multi-server %s k=%d: %w", p.Name, servers, err)
			}
			t.Add(p.Name, trace.Itoa(servers), trace.Ms(b.Iter), trace.Ms(b.Comm),
				trace.Pct(b.CommRatio()))
		}
	}
	return t, nil
}

// AblationLayerwiseOverlap quantifies a baseline improvement the paper's
// setup lacks (Sec. IV-C: aggregation "does not conduct gradient
// computations in each DNN layer"): pipelining the MPI allreduce behind
// the backward pass, Horovod-style, and how ShmCaffe compares against
// that stronger baseline.
func AblationLayerwiseOverlap(hw perfmodel.Hardware) (*trace.Table, error) {
	t := trace.New("Ablation: layer-wise allreduce overlap in the MPI baseline (16 workers)",
		"Model", "MPICaffe (ms)", "MPICaffe pipelined (ms)", "ShmCaffe-H (ms)")
	for _, p := range nn.PaperModels() {
		plain, err := perfmodel.SimulateMPICaffe(p, 16, simIters, hw, perfmodel.SSGDOptions{})
		if err != nil {
			return nil, err
		}
		pipe, err := perfmodel.SimulateMPICaffe(p, 16, simIters, hw, perfmodel.SSGDOptions{Chunks: 8})
		if err != nil {
			return nil, err
		}
		shm, err := perfmodel.SimulateHSGD(p, []int{4, 4, 4, 4}, simIters, hw)
		if err != nil {
			return nil, err
		}
		t.Add(p.Name, trace.Ms(plain.Iter), trace.Ms(pipe.Iter), trace.Ms(shm.Iter))
	}
	return t, nil
}

// StragglerSensitivity quantifies the Sec. II motivation for asynchrony:
// under per-iteration compute jitter, the synchronous barrier pays the
// slowest worker while SEASGD pays only local jitter.
func StragglerSensitivity(hw perfmodel.Hardware) (*trace.Table, error) {
	t := trace.New("Straggler sensitivity: SSGD vs SEASGD under compute jitter (Inception-v1, 16 workers)",
		"Jitter model", "SSGD iter (ms)", "SSGD slowdown", "SEASGD iter (ms)", "SEASGD slowdown")
	const workers = 16
	const iters = 60
	p := nn.InceptionV1

	// The first model adds no jitter: its run is the clean baseline each
	// slowdown is relative to. SSGD is MPICaffe.
	models := []struct {
		label string
		m     perfmodel.StragglerModel
	}{
		{"none", perfmodel.StragglerModel{Seed: 1}},
		{"sigma 0.1, 2% 3x", perfmodel.DefaultStragglers()},
		{"sigma 0.15, 5% 4x", perfmodel.StragglerModel{Sigma: 0.15, SlowProb: 0.05, SlowFactor: 4, Seed: 3}},
		{"sigma 0.3, 10% 5x", perfmodel.StragglerModel{Sigma: 0.3, SlowProb: 0.1, SlowFactor: 5, Seed: 5}},
	}
	var ssgdClean, seasgdClean perfmodel.IterBreakdown
	for i, entry := range models {
		ssgd, err := perfmodel.SimulateMPICaffe(p, workers, iters, hw, perfmodel.SSGDOptions{Stragglers: entry.m})
		if err != nil {
			return nil, err
		}
		seasgd, err := perfmodel.SimulateSEASGD(p, workers, iters, hw, perfmodel.SEASGDOptions{Stragglers: entry.m})
		if err != nil {
			return nil, err
		}
		if i == 0 {
			ssgdClean, seasgdClean = ssgd, seasgd
		}
		t.Add(entry.label,
			trace.Ms(ssgd.Iter),
			trace.F2(ssgd.Iter.Seconds()/ssgdClean.Iter.Seconds())+"x",
			trace.Ms(seasgd.Iter),
			trace.F2(seasgd.Iter.Seconds()/seasgdClean.Iter.Seconds())+"x")
	}
	return t, nil
}
