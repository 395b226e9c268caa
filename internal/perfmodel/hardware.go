// Package perfmodel reproduces the paper's timing results (Figs. 7, 9, 10,
// 12–15; Tables II, V, VI) by simulating each platform's per-iteration
// communication structure on the internal/simnet discrete-event fabric,
// using the paper's own model profiles (internal/nn.Profile) for compute
// time and parameter volume.
//
// The hardware constants below are calibrated once, against the paper's
// Sec. IV numbers, and then reused unchanged across every experiment — the
// same methodology as a validated simulator. See DESIGN.md §5.
package perfmodel

import (
	"fmt"
	"math"
	"time"

	"shmcaffe/internal/nn"
	"shmcaffe/internal/tensor"
)

// Hardware models the paper's testbed (Sec. IV-A): SuperMicro 4028GR nodes
// with 4 GTX Titan X GPUs each, one 56 Gbps FDR Infiniband HCA per node,
// and a dedicated SMB memory server (E5-2609 v2, DDR3-1866).
type Hardware struct {
	// HCABandwidth is the raw unidirectional HCA payload bandwidth
	// (7 GB/s for 56 Gbps FDR).
	HCABandwidth float64
	// HCAEfficiency is the protocol efficiency ceiling; the paper
	// measures 96 % utilization (Fig. 7: 6.7 of 7 GB/s).
	HCAEfficiency float64
	// HCALatency is the per-transfer setup latency.
	HCALatency time.Duration
	// PerFlowCap is the single-connection (RDS queue pair) throughput
	// ceiling; calibrated from the paper's VGG16 two-worker measurement
	// (727.7 ms of communication for 2×528 MB per iteration ⇒
	// ≈1.45 GB/s per flow).
	PerFlowCap float64
	// AccumBandwidth converts an Accumulate of P bytes into P/AccumBW of
	// exclusive SMB-server time (read src + read dst + write dst on the
	// memory server's DDR3).
	AccumBandwidth float64
	// LocalMemBandwidth models the worker-side flat-weight update (T2:
	// compute ΔWx and apply) as P/LocalMemBW.
	LocalMemBandwidth float64
	// MPISoftwareFactor multiplies MPI transfer volume, modeling the
	// user/kernel copies and protocol processing that RDMA eliminates
	// (the overhead the paper's Sec. V credits SMB with removing).
	MPISoftwareFactor float64
	// MPIStepLatency is the per-step software overhead of an MPI ring
	// collective (message matching, progress engine); a ring allreduce
	// over n ranks pays 2(n−1) of these.
	MPIStepLatency time.Duration
	// GPUsPerNode is the cluster layout (4 in the paper).
	GPUsPerNode int
}

// DefaultHardware returns the calibrated testbed model.
func DefaultHardware() Hardware {
	return Hardware{
		HCABandwidth:      7e9,
		HCAEfficiency:     0.96,
		HCALatency:        2 * time.Microsecond,
		PerFlowCap:        1.45e9,
		AccumBandwidth:    6e9,
		LocalMemBandwidth: 12e9,
		MPISoftwareFactor: 2.0,
		MPIStepLatency:    2 * time.Millisecond,
		GPUsPerNode:       4,
	}
}

// Validate checks the hardware model.
func (h Hardware) Validate() error {
	if h.HCABandwidth <= 0 || h.HCAEfficiency <= 0 || h.HCAEfficiency > 1 || h.HCALatency < 0 {
		return fmt.Errorf("perfmodel: bad HCA model %+v", h)
	}
	if h.PerFlowCap <= 0 || h.AccumBandwidth <= 0 || h.LocalMemBandwidth <= 0 {
		return fmt.Errorf("perfmodel: non-positive bandwidth in %+v", h)
	}
	if h.MPISoftwareFactor < 1 {
		return fmt.Errorf("perfmodel: MPI factor %v < 1", h.MPISoftwareFactor)
	}
	if h.MPIStepLatency < 0 {
		return fmt.Errorf("perfmodel: negative MPI step latency %v", h.MPIStepLatency)
	}
	if h.GPUsPerNode < 1 {
		return fmt.Errorf("perfmodel: %d GPUs per node", h.GPUsPerNode)
	}
	return nil
}

// EffectiveHCA returns the usable per-link bandwidth.
func (h Hardware) EffectiveHCA() float64 { return h.HCABandwidth * h.HCAEfficiency }

// NodePCIeBandwidth returns the effective shared host-PCIe bandwidth for a
// single node carrying n GPUs. The tiers are calibrated to Table II's
// single-node Caffe scalability (2.7× at 8 GPUs, 2.3× at 16: the 4028GR
// oversubscribes its PCIe switches beyond 4 GPUs).
func (h Hardware) NodePCIeBandwidth(gpusOnNode int) float64 {
	switch {
	case gpusOnNode <= 4:
		return 10e9
	case gpusOnNode <= 8:
		return 1.43e9
	default:
		return 1.05e9
	}
}

// accumTime is the exclusive server-side time of one Accumulate of bytes.
func (h Hardware) accumTime(bytes float64) time.Duration {
	return time.Duration(bytes / h.AccumBandwidth * float64(time.Second))
}

// localUpdateTime is the worker-side T2/T_ulw time over bytes of weights.
func (h Hardware) localUpdateTime(bytes float64) time.Duration {
	return time.Duration(bytes / h.LocalMemBandwidth * float64(time.Second))
}

// StragglerModel adds lognormal-ish jitter to compute times: iteration
// compute = CompTime · (1 + |N(0, Sigma)|), times SlowFactor with
// probability SlowProb — the "deviations in computation time between deep
// learning workers ... because workers share the system bus, file system
// I/O and network bandwidth" (paper Sec. III-E). The zero model adds none.
type StragglerModel struct {
	Sigma      float64
	SlowProb   float64
	SlowFactor float64
	Seed       uint64
}

// DefaultStragglers returns a moderate jitter model: ±10 % noise with a 2 %
// chance of a 3× outlier.
func DefaultStragglers() StragglerModel {
	return StragglerModel{Sigma: 0.1, SlowProb: 0.02, SlowFactor: 3, Seed: 1}
}

// Validate checks the jitter model: a finite Sigma ≥ 0, SlowProb in [0, 1]
// and, when outliers can occur, a finite SlowFactor ≥ 1.
func (m StragglerModel) Validate() error {
	switch {
	case !(m.Sigma >= 0) || math.IsInf(m.Sigma, 1):
		return fmt.Errorf("perfmodel: straggler sigma %v not in [0, +Inf)", m.Sigma)
	case !(m.SlowProb >= 0 && m.SlowProb <= 1):
		return fmt.Errorf("perfmodel: straggler probability %v not in [0, 1]", m.SlowProb)
	case math.IsNaN(m.SlowFactor) || math.IsInf(m.SlowFactor, 0) || (m.SlowProb > 0 && m.SlowFactor < 1):
		return fmt.Errorf("perfmodel: straggler slow factor %v not a finite factor ≥ 1", m.SlowFactor)
	}
	return nil
}

// compute returns worker w's per-iteration compute times: base jittered by
// m, from a stream seeded by m.Seed and w. Under the zero model every draw
// is exactly base.
func (m StragglerModel) compute(w int, base time.Duration) func() time.Duration {
	rng := tensor.NewRNG(m.Seed).Split(uint64(w))
	return func() time.Duration {
		f := 1 + m.Sigma*math.Abs(rng.NormFloat64())
		if rng.Float64() < m.SlowProb {
			f *= m.SlowFactor
		}
		return time.Duration(float64(base) * f)
	}
}

// IterBreakdown is the Eq. (8) decomposition of one averaged training
// iteration.
type IterBreakdown struct {
	// Iter is the wall-clock time of one iteration.
	Iter time.Duration
	// Comp is T_comp: forward + backward + gradient update.
	Comp time.Duration
	// Comm is the exposed communication time: Iter − Comp.
	Comm time.Duration
}

// CommRatio returns communication share of the iteration (the percentage
// the paper plots in Figs. 12–14).
func (b IterBreakdown) CommRatio() float64 {
	if b.Iter <= 0 {
		return 0
	}
	return float64(b.Comm) / float64(b.Iter)
}

// TrainingTime scales an iteration time to a full run: images samples for
// epochs epochs at the profile's batch size across workers GPUs.
func TrainingTime(b IterBreakdown, p nn.Profile, images, epochs, workers int) time.Duration {
	itersPerEpoch := images / (p.BatchSize * workers)
	if itersPerEpoch < 1 {
		itersPerEpoch = 1
	}
	return time.Duration(itersPerEpoch*epochs) * b.Iter
}

// ImageNetTrainSize is the ILSVRC-2012 training-set size the paper uses.
const ImageNetTrainSize = 1281167

// Eq8Components is the named decomposition of Eq. (8) for one uncontended
// worker: T_iter = max(T_comp, T_wwi + T_ugw) + T_rgw + T_ulw.
type Eq8Components struct {
	Trgw time.Duration // read global weight (T1)
	Tulw time.Duration // update local weight (T2/T5 flat-vector part)
	Twwi time.Duration // write weight increment (T.A1)
	Tugw time.Duration // update (accumulate) global weight (T.A3)
	Comp time.Duration // forward+backward+gradient update (T4+T5)
	Iter time.Duration // resulting iteration time
}

// Eq8Decompose evaluates every term of the paper's analytic iteration-time
// model, Eq. (8):
//
//	T_iter = max(T_comp, T_wwi + T_ugw) + T_rgw + T_ulw
//
// computed for one isolated worker (no link contention). The discrete-event
// simulations generalize it to many contending workers; tests verify they
// agree in the single-worker case.
func (h Hardware) Eq8Decompose(p nn.Profile) Eq8Components {
	transfer := func(bytes float64) time.Duration {
		bw := h.EffectiveHCA()
		if h.PerFlowCap > 0 && h.PerFlowCap < bw {
			bw = h.PerFlowCap
		}
		return h.HCALatency + time.Duration(bytes/bw*float64(time.Second))
	}
	c := Eq8Components{
		Trgw: transfer(float64(p.ParamBytes)),
		Tulw: h.localUpdateTime(float64(p.ParamBytes)),
		Twwi: transfer(float64(p.ParamBytes)),
		Tugw: h.accumTime(float64(p.ParamBytes)),
		Comp: p.CompTime,
	}
	body := c.Comp
	if hidden := c.Twwi + c.Tugw; hidden > body {
		body = hidden
	}
	c.Iter = body + c.Trgw + c.Tulw
	return c
}
