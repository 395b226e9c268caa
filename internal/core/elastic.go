package core

import (
	"fmt"

	"shmcaffe/internal/tensor"
)

// Pure elastic-averaging update algebra, Eqs. (5)–(7) of the paper, as the
// exchange runs it: fused sweeps over flat float32 weight vectors (the
// representation SMB segments store), allocation-free so the worker loop
// can call them per iteration on multi-million-element vectors. The
// one-equation-per-pass forms they are pinned against live in the tests.

// FusedWeightStep computes Eqs. (5)+(6) in one fused sweep:
// delta[i] = α·(local[i] − global[i]) followed by local[i] −= delta[i],
// per element. It is bitwise-identical to the two-pass Eq. (5) then
// Eq. (6) reference (the tests' WeightIncrement and ApplyIncrementLocal;
// the tensor package pins the fused kernel the same way), but reads local
// and global once instead of twice — this is the T2 critical-path update,
// so the saved sweep is exposed time on every exchange. delta may alias global exactly, and the
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
	// tests' Eq. (5) → (6) → (7) chain.
	tensor.FusedElasticExchange(float32(alpha), scratch, local, global)
	return nil
}
