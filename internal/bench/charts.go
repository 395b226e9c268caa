package bench

import (
	"fmt"

	"shmcaffe/internal/nn"
	"shmcaffe/internal/perfmodel"
	"shmcaffe/internal/trace"
)

// Figure-shaped (bar chart) views of the timing exhibits, matching the
// paper's presentation of Figs. 7, 10 and 12–15.

const (
	glyphComp = '#'
	glyphComm = '='
)

var compCommLegend = []string{"# computation", "= exposed communication"}

// Fig7Chart renders the SMB bandwidth ramp as bars.
func Fig7Chart(hw perfmodel.Hardware) (*trace.Chart, error) {
	c := trace.NewChart("Fig. 7: aggregated SMB read/write bandwidth", "GB/s")
	for _, n := range []int{2, 4, 8, 16, 32} {
		bw, err := perfmodel.SimulateSMBBandwidth(n, 1e9, 16e6, hw)
		if err != nil {
			return nil, err
		}
		c.Add(fmt.Sprintf("%2d procs", n), trace.Segment{Glyph: '#', Value: bw / 1e9})
	}
	return c, nil
}

// Fig10Chart renders the four platforms' 16-GPU iteration as stacked
// comp/comm bars.
func Fig10Chart(hw perfmodel.Hardware) (*trace.Chart, error) {
	c := trace.NewChart("Fig. 10: one Inception-v1 iteration at 16 GPUs", "ms")
	c.Legend = compCommLegend
	p := nn.InceptionV1
	for _, pl := range fourPlatforms {
		b, err := pl.sim(p, 16, hw)
		if err != nil {
			return nil, err
		}
		c.Add(pl.name,
			trace.Segment{Glyph: glyphComp, Value: float64(b.Comp.Microseconds()) / 1000},
			trace.Segment{Glyph: glyphComm, Value: float64(b.Comm.Microseconds()) / 1000})
	}
	return c, nil
}

// Fig13Chart renders ShmCaffe-A comp/comm per model at a worker count
// (the Fig. 12/13 bars).
func Fig13Chart(workers int, hw perfmodel.Hardware) (*trace.Chart, error) {
	c := trace.NewChart(
		fmt.Sprintf("Figs. 12-13: ShmCaffe-A per-model iteration at %d workers", workers), "ms")
	c.Legend = compCommLegend
	for _, p := range nn.PaperModels() {
		b, err := perfmodel.SimulateSEASGD(p, workers, simIters, hw, perfmodel.SEASGDOptions{})
		if err != nil {
			return nil, err
		}
		c.Add(p.Name,
			trace.Segment{Glyph: glyphComp, Value: float64(b.Comp.Microseconds()) / 1000},
			trace.Segment{Glyph: glyphComm, Value: float64(b.Comm.Microseconds()) / 1000})
	}
	return c, nil
}

// Fig15Chart renders A vs H per model at 16 GPUs.
func Fig15Chart(hw perfmodel.Hardware) (*trace.Chart, error) {
	c := trace.NewChart("Fig. 15: ShmCaffe-A vs -H one-iteration time at 16 GPUs", "ms")
	c.Legend = compCommLegend
	for _, p := range nn.PaperModels() {
		a, err := perfmodel.SimulateSEASGD(p, 16, simIters, hw, perfmodel.SEASGDOptions{})
		if err != nil {
			return nil, err
		}
		h, err := perfmodel.SimulateHSGD(p, hsgdGroups(16, hw.GPUsPerNode), simIters, hw)
		if err != nil {
			return nil, err
		}
		c.Add(p.Name+" (A)",
			trace.Segment{Glyph: glyphComp, Value: float64(a.Comp.Microseconds()) / 1000},
			trace.Segment{Glyph: glyphComm, Value: float64(a.Comm.Microseconds()) / 1000})
		c.Add(p.Name+" (H)",
			trace.Segment{Glyph: glyphComp, Value: float64(h.Comp.Microseconds()) / 1000},
			trace.Segment{Glyph: glyphComm, Value: float64(h.Comm.Microseconds()) / 1000})
	}
	return c, nil
}
