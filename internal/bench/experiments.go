// Package bench regenerates every table and figure of the paper's
// evaluation section (Sec. IV). Each exported function produces the rows of
// one exhibit; cmd/benchtables and the repository-level benchmarks are thin
// wrappers around them. Timing exhibits run on the perfmodel discrete-event
// simulator; convergence exhibits run real training through
// internal/platform.
package bench

import (
	"fmt"
	"time"

	"shmcaffe/internal/nn"
	"shmcaffe/internal/perfmodel"
	"shmcaffe/internal/platform"
	"shmcaffe/internal/trace"
)

// simIters is the discrete-event iteration count per configuration; enough
// for steady state, cheap enough for CI.
const simIters = 40

// Table1Hardware reproduces Table I: the hardware configuration of each
// platform under test.
func Table1Hardware() *trace.Table {
	t := trace.New("Table I: Hardware for distributed deep learning platforms",
		"Hardware Config.", "Caffe", "Caffe-MPI", "MPICaffe", "ShmCaffe")
	t.Add("GPU Server#", "1", "5", "4", "4")
	t.Add("Total GPU#", "8(10)/16(20)*", "8/16", "8/16", "8/16")
	t.Add("NFS Server#", "1", "1", "1", "1")
	t.Add("Memory Server#", "-", "-", "-", "1")
	t.Add("* 10/20 GPUs used but 8/16 only compute gradients", "", "", "", "")
	return t
}

// Fig7Bandwidth reproduces Fig. 7: aggregated SMB read/write bandwidth as
// the client process count grows from 2 to 32 (1 GB per process, 50/50
// read/write mix).
func Fig7Bandwidth(hw perfmodel.Hardware) (*trace.Table, error) {
	t := trace.New("Fig. 7: Read/Write bandwidth in a SMB server",
		"Processes", "Aggregate BW", "HCA utilization")
	for _, n := range []int{2, 4, 8, 16, 32} {
		bw, err := perfmodel.SimulateSMBBandwidth(n, 1e9, 16e6, hw)
		if err != nil {
			return nil, fmt.Errorf("fig 7 n=%d: %w", n, err)
		}
		t.Add(trace.Itoa(n), trace.GBs(bw), trace.Pct(bw/hw.HCABandwidth))
	}
	return t, nil
}

// timedPlatform is one of the four platforms Table II and Figs. 9–10
// compare: its functional trainer and its simulated iteration on `workers`
// GPUs.
type timedPlatform struct {
	name string
	tr   platform.Trainer
	sim  func(p nn.Profile, workers int, hw perfmodel.Hardware) (perfmodel.IterBreakdown, error)
}

// fourPlatforms lists the compared platforms in the paper's order.
var fourPlatforms = []timedPlatform{
	{"Caffe", platform.Caffe{}, func(p nn.Profile, workers int, hw perfmodel.Hardware) (perfmodel.IterBreakdown, error) {
		return perfmodel.SimulateCaffe(p, workers, simIters, hw)
	}},
	{"Caffe-MPI", platform.CaffeMPI{}, func(p nn.Profile, workers int, hw perfmodel.Hardware) (perfmodel.IterBreakdown, error) {
		return perfmodel.SimulateCaffeMPI(p, workers, simIters, hw)
	}},
	{"MPICaffe", platform.MPICaffe{}, func(p nn.Profile, workers int, hw perfmodel.Hardware) (perfmodel.IterBreakdown, error) {
		return perfmodel.SimulateMPICaffe(p, workers, simIters, hw, perfmodel.SSGDOptions{})
	}},
	{"ShmCaffe", platform.ShmCaffeH{}, func(p nn.Profile, workers int, hw perfmodel.Hardware) (perfmodel.IterBreakdown, error) {
		return perfmodel.SimulateHSGD(p, hsgdGroups(workers, hw.GPUsPerNode), simIters, hw)
	}},
}

// Table2TrainingTime reproduces Table II / Fig. 9: Inception-v1 15-epoch
// training time and scalability for the four platforms at 1/8/16 GPUs.
// Scalability is relative to Caffe on 1 GPU, as in the paper.
func Table2TrainingTime(hw perfmodel.Hardware) (*trace.Table, error) {
	p := nn.InceptionV1
	type cell struct {
		time  time.Duration
		valid bool
	}
	gpuCounts := []int{1, 8, 16}
	grid := make(map[string]map[int]cell)
	for _, pl := range fourPlatforms {
		grid[pl.name] = make(map[int]cell)
		for _, gpus := range gpuCounts {
			if gpus == 1 && pl.name != "Caffe" {
				continue // the distributed platforms start at 8 GPUs
			}
			b, err := pl.sim(p, gpus, hw)
			if err != nil {
				return nil, err
			}
			grid[pl.name][gpus] = cell{perfmodel.TrainingTime(b, p, perfmodel.ImageNetTrainSize, 15, gpus), true}
		}
	}

	base := grid["Caffe"][1].time
	t := trace.New("Table II: Inception-v1 training time (15 epochs) and scalability",
		"Platform", "1 GPU", "8 GPUs", "16 GPUs", "Scal. 8", "Scal. 16")
	for _, pl := range fourPlatforms {
		name := pl.name
		row := []string{name}
		for _, gpus := range gpuCounts {
			c := grid[name][gpus]
			if !c.valid {
				row = append(row, "-")
				continue
			}
			row = append(row, trace.HoursMinutes(c.time))
		}
		for _, gpus := range []int{8, 16} {
			c := grid[name][gpus]
			if !c.valid {
				row = append(row, "-")
				continue
			}
			row = append(row, trace.F1(base.Seconds()/c.time.Seconds())+"x")
		}
		t.Add(row...)
	}
	return t, nil
}

// hsgdGroups splits `workers` into node-size groups, the paper's ShmCaffe
// deployment (Table III: 4 GPUs per node).
func hsgdGroups(workers, perNode int) []int {
	var groups []int
	for workers > 0 {
		g := perNode
		if workers < g {
			g = workers
		}
		groups = append(groups, g)
		workers -= g
	}
	return groups
}

// Fig10CompComm reproduces Fig. 10: per-iteration computation vs exposed
// communication time of the four platforms training Inception-v1 on 16
// GPUs.
func Fig10CompComm(hw perfmodel.Hardware) (*trace.Table, error) {
	p := nn.InceptionV1
	const gpus = 16
	t := trace.New("Fig. 10: Computation and communication per iteration (Inception-v1, 16 GPUs)",
		"Platform", "Comp (ms)", "Comm (ms)", "Iter (ms)", "Comm ratio")
	for _, pl := range fourPlatforms {
		b, err := pl.sim(p, gpus, hw)
		if err != nil {
			return nil, err
		}
		t.Add(pl.name, trace.Ms(b.Comp), trace.Ms(b.Comm), trace.Ms(b.Iter), trace.Pct(b.CommRatio()))
	}
	return t, nil
}

// Table3Configs reproduces Table III: the (synchronous × asynchronous)
// worker layouts of the ShmCaffe-A/H scalability study.
func Table3Configs() *trace.Table {
	t := trace.New("Table III: Worker configurations for the A/H study",
		"Total GPUs", "ShmCaffe-A", "ShmCaffe-H")
	t.Add("1", "A1", "-")
	t.Add("2", "A2", "S2 (single group)")
	t.Add("4", "A4", "S2xA2")
	t.Add("8", "A8", "S4xA2")
	t.Add("16", "A16", "S4xA4")
	return t
}

// Table4Models reproduces Table IV: parameter size and single-GPU
// computation time of the four CNN models.
func Table4Models() *trace.Table {
	t := trace.New("Table IV: Parameter size and computation time of 4 CNN models",
		"Model", "Params (MB)", "Comp/iter (ms)", "Batch", "Input")
	for _, p := range nn.PaperModels() {
		t.Add(p.Name, trace.F1(p.ParamMB()), trace.Ms(p.CompTime),
			trace.Itoa(p.BatchSize), fmt.Sprintf("%dx%d", p.InputSide, p.InputSide))
	}
	return t
}

// Table5ShmCaffeA reproduces Table V / Figs. 12–13: ShmCaffe-A computation
// and exposed communication per iteration across the four models at
// 1/2/4/8/16 workers.
func Table5ShmCaffeA(hw perfmodel.Hardware) (*trace.Table, error) {
	t := trace.New("Table V / Figs. 12-13: ShmCaffe-A comp & comm per model",
		"Model", "Workers", "Comp (ms)", "Comm (ms)", "Iter (ms)", "Comm ratio")
	for _, p := range nn.PaperModels() {
		for _, w := range []int{1, 2, 4, 8, 16} {
			b, err := perfmodel.SimulateSEASGD(p, w, simIters, hw, perfmodel.SEASGDOptions{})
			if err != nil {
				return nil, fmt.Errorf("table 5 %s w=%d: %w", p.Name, w, err)
			}
			t.Add(p.Name, trace.Itoa(w), trace.Ms(b.Comp), trace.Ms(b.Comm),
				trace.Ms(b.Iter), trace.Pct(b.CommRatio()))
		}
	}
	return t, nil
}

// hsgdConfig is one Table III (S#,A#) layout: A# groups of S# workers.
type hsgdConfig struct {
	label  string
	groups []int
}

func hsgdStudyConfigs() []hsgdConfig {
	return []hsgdConfig{
		{"4(S4)", []int{4}},
		{"4(S2xA2)", []int{2, 2}},
		{"8(S2xA4)", []int{2, 2, 2, 2}},
		{"8(S4xA2)", []int{4, 4}},
		{"16(S4xA4)", []int{4, 4, 4, 4}},
	}
}

// Table6ShmCaffeH reproduces Table VI / Fig. 14: ShmCaffe-H computation and
// communication per model across the (S#,A#) layouts.
func Table6ShmCaffeH(hw perfmodel.Hardware) (*trace.Table, error) {
	t := trace.New("Table VI / Fig. 14: ShmCaffe-H comp & comm per model",
		"Model", "Config", "Comp (ms)", "Comm (ms)", "Iter (ms)", "Comm ratio")
	for _, p := range nn.PaperModels() {
		for _, cfg := range hsgdStudyConfigs() {
			b, err := perfmodel.SimulateHSGD(p, cfg.groups, simIters, hw)
			if err != nil {
				return nil, fmt.Errorf("table 6 %s %s: %w", p.Name, cfg.label, err)
			}
			t.Add(p.Name, cfg.label, trace.Ms(b.Comp), trace.Ms(b.Comm),
				trace.Ms(b.Iter), trace.Pct(b.CommRatio()))
		}
	}
	return t, nil
}

// Fig15AvsH reproduces Fig. 15: one-iteration time of ShmCaffe-A vs
// ShmCaffe-H per model at 8 and 16 GPUs.
func Fig15AvsH(hw perfmodel.Hardware) (*trace.Table, error) {
	t := trace.New("Fig. 15: ShmCaffe-A vs ShmCaffe-H one-iteration time",
		"Model", "GPUs", "A iter (ms)", "H iter (ms)", "H speedup")
	for _, p := range nn.PaperModels() {
		for _, gpus := range []int{8, 16} {
			a, err := perfmodel.SimulateSEASGD(p, gpus, simIters, hw, perfmodel.SEASGDOptions{})
			if err != nil {
				return nil, err
			}
			h, err := perfmodel.SimulateHSGD(p, hsgdGroups(gpus, hw.GPUsPerNode), simIters, hw)
			if err != nil {
				return nil, err
			}
			t.Add(p.Name, trace.Itoa(gpus), trace.Ms(a.Iter), trace.Ms(h.Iter),
				trace.F2(a.Iter.Seconds()/h.Iter.Seconds())+"x")
		}
	}
	return t, nil
}
