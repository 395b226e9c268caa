// Package mpi is a minimal in-process message-passing runtime for the
// MPI-based baselines the paper compares against: Caffe-MPI gathers
// gradients at the master and broadcasts the updated weights, MPICaffe
// all-reduces gradients. A World of n goroutine ranks provides exactly
// those collectives — Gather, Bcast and AllreduceSum. ShmCaffe itself needs
// no MPI runtime: its workers rendezvous on the SMB server (internal/core).
package mpi

import (
	"errors"
	"fmt"
	"sync"
)

// ErrRank is returned for out-of-range rank arguments.
var ErrRank = errors.New("mpi: rank out of range")

// World is one communicator instance shared by n ranks.
type World struct {
	n int

	// Collective state: a cyclic barrier with an attached float64
	// accumulator generation used by AllreduceSum.
	mu      sync.Mutex
	cond    *sync.Cond
	arrived int    // guarded by mu
	gen     uint64 // guarded by mu
	// reduce accumulator for the current generation; guarded by mu
	acc []float64
	// bcast buffer for the current generation; guarded by mu
	bcastBuf []byte
	// gather buffers for the current generation; guarded by mu
	gatherBufs [][]byte
}

// NewWorld creates a communicator for n ranks.
func NewWorld(n int) (*World, error) {
	if n < 1 {
		return nil, fmt.Errorf("mpi: world size %d < 1", n)
	}
	w := &World{n: n}
	w.cond = sync.NewCond(&w.mu)
	return w, nil
}

// Comm returns the per-rank handle used by worker goroutines.
func (w *World) Comm(rank int) (*Comm, error) {
	if rank < 0 || rank >= w.n {
		return nil, fmt.Errorf("comm rank %d of %d: %w", rank, w.n, ErrRank)
	}
	return &Comm{world: w, rank: rank}, nil
}

// Comm is one rank's endpoint. Each Comm must be used by a single goroutine.
type Comm struct {
	world *World
	rank  int
}

// barrierLocked blocks until all n ranks arrive; the last arrival runs
// onLast (may be nil) before waking everyone. Callers hold w.mu.
func (w *World) barrierLocked(onLast func()) {
	gen := w.gen
	w.arrived++
	if w.arrived == w.n {
		if onLast != nil {
			onLast()
		}
		w.arrived = 0
		w.gen++
		w.cond.Broadcast()
		return
	}
	for w.gen == gen {
		w.cond.Wait()
	}
}

// Bcast broadcasts root's buf to every rank: on non-root ranks the returned
// slice is a copy of root's; on root it is buf itself.
func (c *Comm) Bcast(root int, buf []byte) ([]byte, error) {
	if root < 0 || root >= c.world.n {
		return nil, fmt.Errorf("bcast root %d: %w", root, ErrRank)
	}
	w := c.world
	w.mu.Lock()
	if c.rank == root {
		cp := make([]byte, len(buf))
		copy(cp, buf)
		w.bcastBuf = cp
	}
	w.barrierLocked(nil)
	src := w.bcastBuf
	w.barrierLocked(func() { w.bcastBuf = nil })
	w.mu.Unlock()
	if c.rank == root {
		return buf, nil
	}
	out := make([]byte, len(src))
	copy(out, src)
	return out, nil
}

// Gather collects each rank's buf at root; non-root ranks receive nil.
func (c *Comm) Gather(root int, buf []byte) ([][]byte, error) {
	if root < 0 || root >= c.world.n {
		return nil, fmt.Errorf("gather root %d: %w", root, ErrRank)
	}
	w := c.world
	w.mu.Lock()
	if w.gatherBufs == nil {
		w.gatherBufs = make([][]byte, w.n)
	}
	cp := make([]byte, len(buf))
	copy(cp, buf)
	w.gatherBufs[c.rank] = cp
	w.barrierLocked(nil)
	var out [][]byte
	if c.rank == root {
		out = w.gatherBufs
	}
	w.barrierLocked(func() { w.gatherBufs = nil })
	w.mu.Unlock()
	return out, nil
}

// AllreduceSum sums data elementwise across all ranks, writing the result
// back into data on every rank. The accumulation is performed in float64 so
// the result is identical on all ranks regardless of arrival order.
func (c *Comm) AllreduceSum(data []float32) error {
	w := c.world
	w.mu.Lock()
	if w.acc == nil {
		w.acc = make([]float64, len(data))
	}
	if len(w.acc) != len(data) {
		w.mu.Unlock()
		return fmt.Errorf("mpi: allreduce length %d does not match %d", len(data), len(w.acc))
	}
	for i, v := range data {
		w.acc[i] += float64(v)
	}
	w.barrierLocked(nil)
	for i := range data {
		data[i] = float32(w.acc[i])
	}
	w.barrierLocked(func() { w.acc = nil })
	w.mu.Unlock()
	return nil
}
