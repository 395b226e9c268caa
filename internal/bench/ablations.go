package bench

import (
	"fmt"

	"shmcaffe/internal/nn"
	"shmcaffe/internal/perfmodel"
	"shmcaffe/internal/trace"
)

// The ablation exhibits quantify the design choices DESIGN.md §6 calls out.
// They are extensions beyond the paper's own figures: each isolates one
// mechanism the paper asserts matters and shows its cost/benefit.

// AblationOverlap compares the Fig. 6 update-thread overlap against an
// inline (blocking) push across worker counts — the value of hiding
// T_wwi + T_ugw behind computation.
func AblationOverlap(hw perfmodel.Hardware) (*trace.Table, error) {
	t := trace.New("Ablation: overlapped vs blocking global-weight push (Inception-v1)",
		"Workers", "Overlap iter (ms)", "Blocking iter (ms)", "Overlap saves")
	for _, w := range []int{1, 4, 8, 16} {
		over, err := perfmodel.SimulateSEASGD(nn.InceptionV1, w, simIters, hw,
			perfmodel.SEASGDOptions{})
		if err != nil {
			return nil, err
		}
		block, err := perfmodel.SimulateSEASGD(nn.InceptionV1, w, simIters, hw,
			perfmodel.SEASGDOptions{DisableOverlap: true})
		if err != nil {
			return nil, err
		}
		saved := 1 - over.Iter.Seconds()/block.Iter.Seconds()
		t.Add(trace.Itoa(w), trace.Ms(over.Iter), trace.Ms(block.Iter), trace.Pct(saved))
	}
	return t, nil
}

// AblationHiddenRead compares exposing the global read (the paper's
// choice) against hiding it in the update thread. Hiding saves time per
// iteration; the paper rejects it because of the extra parameter staleness
// (measured functionally by Fig11AsyncVsHybrid-style runs).
func AblationHiddenRead(hw perfmodel.Hardware) (*trace.Table, error) {
	t := trace.New("Ablation: exposed vs hidden global-weight read (Inception-v1)",
		"Workers", "Exposed iter (ms)", "Hidden iter (ms)", "Hidden saves")
	for _, w := range []int{1, 4, 8, 16} {
		exposed, err := perfmodel.SimulateSEASGD(nn.InceptionV1, w, simIters, hw,
			perfmodel.SEASGDOptions{})
		if err != nil {
			return nil, err
		}
		hidden, err := perfmodel.SimulateSEASGD(nn.InceptionV1, w, simIters, hw,
			perfmodel.SEASGDOptions{HideGlobalRead: true})
		if err != nil {
			return nil, err
		}
		saved := 1 - hidden.Iter.Seconds()/exposed.Iter.Seconds()
		t.Add(trace.Itoa(w), trace.Ms(exposed.Iter), trace.Ms(hidden.Iter), trace.Pct(saved))
	}
	return t, nil
}

// AblationUpdateInterval sweeps update_interval: fewer global exchanges
// mean less traffic per iteration at the price of coarser coordination.
func AblationUpdateInterval(hw perfmodel.Hardware) (*trace.Table, error) {
	t := trace.New("Ablation: update_interval sweep (Inception-ResNet-v2, 16 workers)",
		"update_interval", "Iter (ms)", "Comm (ms)", "Comm ratio")
	for _, k := range []int{1, 2, 4, 8} {
		b, err := perfmodel.SimulateSEASGD(nn.InceptionResNetV2, 16, simIters, hw,
			perfmodel.SEASGDOptions{UpdateInterval: k})
		if err != nil {
			return nil, err
		}
		t.Add(trace.Itoa(k), trace.Ms(b.Iter), trace.Ms(b.Comm), trace.Pct(b.CommRatio()))
	}
	return t, nil
}

// AblationAccumulate compares SMB's server-side Accumulate verb against a
// client-side read-modify-write of Wg — the dumb-buffer design point the
// SMB server's one extra verb buys.
func AblationAccumulate(hw perfmodel.Hardware) (*trace.Table, error) {
	t := trace.New("Ablation: server-side Accumulate vs client-side RMW (ResNet-50)",
		"Workers", "Accumulate iter (ms)", "RMW iter (ms)", "Accumulate saves")
	for _, w := range []int{2, 4, 8, 16} {
		acc, err := perfmodel.SimulateSEASGD(nn.ResNet50, w, simIters, hw,
			perfmodel.SEASGDOptions{})
		if err != nil {
			return nil, err
		}
		rmw, err := perfmodel.SimulateSEASGD(nn.ResNet50, w, simIters, hw,
			perfmodel.SEASGDOptions{ClientSideRMW: true})
		if err != nil {
			return nil, err
		}
		saved := 1 - acc.Iter.Seconds()/rmw.Iter.Seconds()
		t.Add(trace.Itoa(w), trace.Ms(acc.Iter), trace.Ms(rmw.Iter), trace.Pct(saved))
	}
	return t, nil
}

// AblationGroupSize sweeps the HSGD group size at a fixed total of 16
// workers: larger groups shift traffic from the single SMB link to
// per-node PCIe.
func AblationGroupSize(hw perfmodel.Hardware) (*trace.Table, error) {
	t := trace.New("Ablation: HSGD group size at 16 workers (Inception-ResNet-v2)",
		"Layout", "Iter (ms)", "Comm (ms)", "Comm ratio")
	layouts := []struct {
		label  string
		groups []int
	}{
		{"S1xA16 (pure async)", []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
		{"S2xA8", []int{2, 2, 2, 2, 2, 2, 2, 2}},
		{"S4xA4", []int{4, 4, 4, 4}},
		{"S8xA2", []int{8, 8}},
	}
	for _, l := range layouts {
		b, err := perfmodel.SimulateHSGD(nn.InceptionResNetV2, l.groups, simIters, hw)
		if err != nil {
			return nil, fmt.Errorf("group size %s: %w", l.label, err)
		}
		t.Add(l.label, trace.Ms(b.Iter), trace.Ms(b.Comm), trace.Pct(b.CommRatio()))
	}
	return t, nil
}
