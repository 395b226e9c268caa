package core

import (
	"fmt"

	"shmcaffe/internal/tensor"
)

// Pure elastic-averaging update algebra, Eqs. (2)–(7) of the paper. All
// functions operate on flat float32 weight vectors (the representation SMB
// segments store) and are deliberately allocation-free so the worker loop
// can call them per iteration on multi-million-element vectors.

// WeightIncrement computes Eq. (5): delta[i] = α · (local[i] − global[i]).
// delta, local and global must have equal length.
func WeightIncrement(delta, local, global []float32, alpha float64) error {
	if len(delta) != len(local) || len(local) != len(global) {
		return fmt.Errorf("weight increment lengths %d/%d/%d: %w",
			len(delta), len(local), len(global), ErrConfig)
	}
	a := float32(alpha)
	for i := range delta {
		delta[i] = a * (local[i] - global[i])
	}
	return nil
}

// ApplyIncrementLocal computes Eq. (6): local[i] −= delta[i]. The worker
// pulls its replica toward the global weight.
func ApplyIncrementLocal(local, delta []float32) error {
	if len(local) != len(delta) {
		return fmt.Errorf("apply increment lengths %d/%d: %w", len(local), len(delta), ErrConfig)
	}
	for i := range local {
		local[i] -= delta[i]
	}
	return nil
}

// FusedWeightStep computes Eqs. (5)+(6) in one fused sweep:
// delta[i] = α·(local[i] − global[i]) followed by local[i] −= delta[i],
// per element. It is bitwise-identical to WeightIncrement followed by
// ApplyIncrementLocal (the tensor package pins the fused kernel against
// that two-pass reference), but reads local and global once instead of
// twice — this is the T2 critical-path update, so the saved sweep is
// exposed time on every exchange. delta may alias global exactly, and the
// exchange runs it that way: T1 lands Wg in pendingDelta and T2 overwrites
// it with the increment in place, two streamed arrays instead of three.
// delta must not alias local.
//
//shm:hotpath
func FusedWeightStep(delta, local, global []float32, alpha float64) error {
	if len(delta) != len(local) || len(local) != len(global) {
		return fmt.Errorf("fused weight step lengths %d/%d/%d: %w",
			len(delta), len(local), len(global), ErrConfig)
	}
	tensor.FusedElasticStep(float32(alpha), delta, local, global)
	return nil
}

// ApplyIncrementGlobal computes Eq. (7): global[i] += delta[i]. In ShmCaffe
// this runs on the SMB server as an Accumulate; the function exists for the
// in-memory parameter-server baselines and for property tests asserting
// that the SMB path and the direct path agree.
func ApplyIncrementGlobal(global, delta []float32) error {
	if len(global) != len(delta) {
		return fmt.Errorf("apply global lengths %d/%d: %w", len(global), len(delta), ErrConfig)
	}
	for i := range global {
		global[i] += delta[i]
	}
	return nil
}

// ElasticExchange performs the full Eq. (5)–(7) exchange against in-memory
// buffers: computes the increment from (local, global), applies it to both.
// It is the transport-free reference implementation of one SEASGD exchange,
// used by the classic EASGD baseline (where the parameter server applies
// Eq. 4 directly) and by tests that compare against the SMB-mediated path.
func ElasticExchange(local, global, scratch []float32, alpha float64) error {
	if len(scratch) != len(local) || len(local) != len(global) {
		return fmt.Errorf("elastic exchange lengths %d/%d/%d: %w",
			len(scratch), len(local), len(global), ErrConfig)
	}
	// One fused sweep over all three vectors; bitwise-identical to the
	// WeightIncrement → ApplyIncrementLocal → ApplyIncrementGlobal chain.
	tensor.FusedElasticExchange(float32(alpha), scratch, local, global)
	return nil
}

// CenterDistance returns the squared L2 distance between a replica and the
// global weight — the quantity the elastic penalty ρ/2·‖x−x̃‖² controls.
// Diagnostics and tests use it to verify replicas stay tethered.
func CenterDistance(local, global []float32) (float64, error) {
	if len(local) != len(global) {
		return 0, fmt.Errorf("center distance lengths %d/%d: %w", len(local), len(global), ErrConfig)
	}
	var s float64
	for i := range local {
		d := float64(local[i] - global[i])
		s += d * d
	}
	return s, nil
}
