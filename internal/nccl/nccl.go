// Package nccl implements ring allreduce, rooted reduce and broadcast over
// an intra-node device group — the stand-in for NVIDIA NCCL, which BVLC
// Caffe uses for multi-GPU SSGD and ShmCaffe-H uses inside each worker group
// (paper Sec. III-D), and the collective runtime of the MPI baselines
// (MPI_Allreduce for MPICaffe, the master's gather-and-sum for Caffe-MPI).
// The allreduce is the genuine two-phase ring (reduce-scatter + allgather)
// executed by the participating goroutines with per-step barriers, not a
// shortcut through a shared accumulator, so its communication structure
// matches what the timing model charges for.
//
// The group is shrinkable: Leave(rank) removes a failed member, and
// collectives in flight restart over the survivors instead of deadlocking
// at the next barrier waiting for a rank that will never arrive (the
// crash-aware half of the paper's Sec. III-E termination alignment, which
// assumes workers only ever stop on purpose).
package nccl

import (
	"errors"
	"fmt"
	"sync"
)

// ErrGroup is returned for invalid group arguments.
var ErrGroup = errors.New("nccl: invalid group argument")

// ErrAborted is returned from collectives after Abort is called — the
// group-wide cancellation that lets surviving members unwind instead of
// waiting forever for a failed peer.
var ErrAborted = errors.New("nccl: group aborted")

// errShrunk is the internal signal that the membership changed under a
// collective in flight. Collectives catch it and retry over the survivors;
// it never escapes the public API.
var errShrunk = errors.New("nccl: group shrunk mid-collective")

// Group coordinates a set of up to n devices (goroutines). All active
// devices must call the same collective with same-length buffers, like a
// NCCL communicator.
type Group struct {
	n int

	mu      sync.Mutex
	cond    *sync.Cond
	arrived int         // guarded by mu
	gen     uint64      // guarded by mu
	epoch   uint64      // guarded by mu; bumped by Leave, restarts in-flight collectives
	bufs    [][]float32 // guarded by mu
	length  int         // guarded by mu
	aborted bool        // guarded by mu
	active  []bool      // guarded by mu
	live    int         // guarded by mu

	// scratch[r] snapshots rank r's contribution to an allreduce or, at the
	// root, a reduce, so a collective restarted by a shrink can start over
	// from it. Each rank touches only its own slot, so no lock is needed
	// around the copies.
	scratch [][]float32
}

// NewGroup returns a communicator for n devices, all initially active.
//
//lint:ignore guardedby pre-publication initialisation: g has not escaped yet
func NewGroup(n int) (*Group, error) {
	if n < 1 {
		return nil, fmt.Errorf("nccl: group size %d: %w", n, ErrGroup)
	}
	g := &Group{
		n:       n,
		bufs:    make([][]float32, n),
		active:  make([]bool, n),
		live:    n,
		scratch: make([][]float32, n),
	}
	for i := range g.active {
		g.active[i] = true
	}
	g.cond = sync.NewCond(&g.mu)
	return g, nil
}

// Size returns the number of devices the group was created with.
func (g *Group) Size() int { return g.n }

// Live returns the number of devices still in the group.
func (g *Group) Live() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.live
}

// Abort cancels the group: every device blocked in (or subsequently
// entering) a collective returns ErrAborted. Call it when the group cannot
// continue at all; for a single failed member, Leave keeps the survivors
// going.
func (g *Group) Abort() {
	g.mu.Lock()
	g.aborted = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Leave removes rank from the group. Survivors blocked in a collective
// restart it among themselves; future collectives simply exclude the rank.
// Idempotent; unknown ranks are ignored. Leave must be called for a member
// that is NOT inside a collective (a member's failure path runs in its own
// goroutine after the collective returned — see HybridGroup.Run), which is
// what makes clearing its buffer here race-free: survivors only read
// neighbor buffers between two barriers the departed rank also passed,
// so a rank with unreturned collective calls cannot be concurrently read.
func (g *Group) Leave(rank int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if rank < 0 || rank >= g.n || !g.active[rank] {
		return
	}
	g.active[rank] = false
	g.live--
	g.bufs[rank] = nil
	g.epoch++
	// Restart the barrier accounting: survivors parked on the old epoch
	// wake with errShrunk and re-enter; arrivals already counted belong to
	// the dead epoch.
	g.arrived = 0
	if g.live == 0 {
		g.length = 0
	}
	g.cond.Broadcast()
}

// barrierAt blocks until every live device arrives, the group aborts, or
// the membership changes (errShrunk — the collective must restart).
func (g *Group) barrierAt(epoch uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.aborted {
		return ErrAborted
	}
	if g.epoch != epoch {
		return errShrunk
	}
	gen := g.gen
	g.arrived++
	if g.arrived == g.live {
		g.arrived = 0
		g.gen++
		g.cond.Broadcast()
		return nil
	}
	for g.gen == gen && !g.aborted && g.epoch == epoch {
		g.cond.Wait()
	}
	if g.aborted {
		return ErrAborted
	}
	if g.epoch != epoch {
		return errShrunk
	}
	return nil
}

// ringView describes one attempt's membership snapshot: the epoch it is
// valid for, the collective size, the caller's dense index among active
// ranks, and its left neighbor's rank.
type ringView struct {
	epoch uint64
	size  int
	idx   int
	left  int
}

// enter publishes rank's buffer, snapshots the ring view, and passes the
// entry barrier. On errShrunk the caller restarts the whole collective.
func (g *Group) enter(rank int, data []float32) (ringView, error) {
	g.mu.Lock()
	if g.aborted {
		g.mu.Unlock()
		return ringView{}, ErrAborted
	}
	if !g.active[rank] {
		g.mu.Unlock()
		return ringView{}, fmt.Errorf("nccl: rank %d has left the group: %w", rank, ErrGroup)
	}
	if g.length == 0 {
		g.length = len(data)
	}
	lengthOK := g.length == len(data)
	g.bufs[rank] = data
	v := ringView{epoch: g.epoch, size: g.live, idx: 0, left: rank}
	for r := 0; r < g.n; r++ {
		if !g.active[r] {
			continue
		}
		if r < rank {
			v.idx++
		}
	}
	// Left neighbor: the nearest active rank below, wrapping to the
	// highest active rank.
	for r := rank - 1; ; r-- {
		if r < 0 {
			r = g.n - 1
		}
		if g.active[r] {
			v.left = r
			break
		}
	}
	g.mu.Unlock()
	if !lengthOK {
		// A mismatched buffer poisons the whole collective; abort so
		// the peers unwind rather than deadlock.
		g.Abort()
		return ringView{}, fmt.Errorf("nccl: rank %d buffer length %d != %d: %w", rank, len(data), g.length, ErrGroup)
	}
	return v, g.barrierAt(v.epoch)
}

// exit clears the published buffer after a collective completes. The lowest
// active rank resets the shared length for the next collective.
func (g *Group) exit(rank int, epoch uint64) error {
	if err := g.barrierAt(epoch); err != nil {
		return err
	}
	g.mu.Lock()
	g.bufs[rank] = nil
	leader := true
	for r := 0; r < rank; r++ {
		if g.active[r] {
			leader = false
			break
		}
	}
	if leader {
		g.length = 0
	}
	g.mu.Unlock()
	return g.barrierAt(epoch)
}

// chunkBounds splits length into n contiguous chunks.
func chunkBounds(length, n, idx int) (lo, hi int) {
	base := length / n
	rem := length % n
	lo = idx*base + min(idx, rem)
	size := base
	if idx < rem {
		size++
	}
	return lo, lo + size
}

// allReduce sums data elementwise across all live devices in the group,
// leaving the full sum in every device's buffer, and reports the size of
// the collective that finally completed — the divisor AllReduceMean needs
// (dividing by the static group size would deflate the mean once a member
// has left). Single-device collectives return immediately (matching NCCL).
func (g *Group) allReduce(rank int, data []float32) (int, error) {
	if rank < 0 || rank >= g.n {
		return 0, fmt.Errorf("nccl: rank %d of %d: %w", rank, g.n, ErrGroup)
	}
	if g.n == 1 {
		return 1, nil
	}
	// Snapshot the contribution before the ring mutates it, so a shrink
	// mid-collective can rewind and re-reduce over the survivors.
	snap := g.snapshot(rank, data)
	for {
		size, err := g.tryAllReduce(rank, data)
		if !errors.Is(err, errShrunk) {
			return size, err
		}
		copy(data, snap)
	}
}

// snapshot copies data into rank's scratch slot, which is grow-only, and
// returns the copy.
func (g *Group) snapshot(rank int, data []float32) []float32 {
	if cap(g.scratch[rank]) < len(data) {
		g.scratch[rank] = make([]float32, len(data))
	}
	snap := g.scratch[rank][:len(data)]
	copy(snap, data)
	return snap
}

// tryAllReduce executes one ring attempt over the current membership.
func (g *Group) tryAllReduce(rank int, data []float32) (int, error) {
	v, err := g.enter(rank, data)
	if err != nil {
		return 0, err
	}
	if v.size == 1 {
		// Last device standing: the sum is its own buffer.
		return 1, g.exit(rank, v.epoch)
	}

	// Phase 1 — reduce-scatter: after step s, chunk (i-s-1 mod size) of
	// index i holds the partial sum of s+2 contributions. Each step reads
	// the left neighbor's chunk c and adds it into the local chunk c; the
	// neighbor is concurrently writing a different chunk, and the barriers
	// delimit the steps, so the reads are race-free.
	for s := 0; s < v.size-1; s++ {
		c := ((v.idx-s-1)%v.size + v.size) % v.size
		lo, hi := chunkBounds(len(data), v.size, c)
		src := g.bufs[v.left][lo:hi] //lint:ignore guardedby step barriers order this read after the neighbor's write
		dst := data[lo:hi]
		for i := range dst {
			dst[i] += src[i]
		}
		if err := g.barrierAt(v.epoch); err != nil {
			return 0, err
		}
	}

	// Phase 2 — allgather: index i now owns the fully reduced chunk
	// (i+1 mod size)... step s copies chunk (i-s mod size) from the left
	// neighbor, which completed it in the previous step.
	for s := 0; s < v.size-1; s++ {
		c := ((v.idx-s)%v.size + v.size) % v.size
		lo, hi := chunkBounds(len(data), v.size, c)
		copy(data[lo:hi], g.bufs[v.left][lo:hi]) //lint:ignore guardedby step barriers order this read after the neighbor's write
		if err := g.barrierAt(v.epoch); err != nil {
			return 0, err
		}
	}

	return v.size, g.exit(rank, v.epoch)
}

// Broadcast copies root's buffer into every live device's buffer. Must be
// called by every live device concurrently. A root that has left the group
// is a permanent error — there is nothing to copy from.
func (g *Group) Broadcast(rank, root int, data []float32) error {
	if root < 0 || root >= g.n {
		return fmt.Errorf("nccl: root %d of %d: %w", root, g.n, ErrGroup)
	}
	if g.n == 1 {
		if rank != 0 {
			return fmt.Errorf("nccl: rank %d of 1: %w", rank, ErrGroup)
		}
		return nil
	}
	for {
		err := g.tryBroadcast(rank, root, data)
		if !errors.Is(err, errShrunk) {
			return err
		}
	}
}

func (g *Group) tryBroadcast(rank, root int, data []float32) error {
	if err := g.rootLive("broadcast", root); err != nil {
		return err
	}
	v, err := g.enter(rank, data)
	if err != nil {
		return err
	}
	if v.size > 1 && rank != root {
		copy(data, g.bufs[root]) //lint:ignore guardedby the entry barrier orders this read after root published its buffer
	}
	return g.exit(rank, v.epoch)
}

// rootLive reports a permanent error if root has left the group: a rooted
// collective has no source or destination without it.
func (g *Group) rootLive(verb string, root int) error {
	g.mu.Lock()
	live := g.active[root]
	g.mu.Unlock()
	if !live {
		return fmt.Errorf("nccl: %s root %d has left the group: %w", verb, root, ErrGroup)
	}
	return nil
}

// Reduce sums data elementwise across all live devices into root's buffer,
// in rank order starting from +0 — the master's gather-and-sum of
// Caffe-MPI, whose bits therefore do not depend on arrival order. The other
// devices' buffers are left as they were. Must be called by every live
// device concurrently. A root that has left the group is a permanent error
// — there is nowhere to sum to.
func (g *Group) Reduce(rank, root int, data []float32) error {
	if rank < 0 || rank >= g.n {
		return fmt.Errorf("nccl: rank %d of %d: %w", rank, g.n, ErrGroup)
	}
	if root < 0 || root >= g.n {
		return fmt.Errorf("nccl: root %d of %d: %w", root, g.n, ErrGroup)
	}
	// The root sums into its own buffer, so every attempt starts over from
	// a snapshot of its contribution.
	var own []float32
	if rank == root {
		own = g.snapshot(rank, data)
	}
	for {
		err := g.tryReduce(rank, root, data, own)
		if !errors.Is(err, errShrunk) {
			return err
		}
	}
}

// tryReduce executes one reduce attempt over the current membership. A rank
// outside the collective has no published buffer and adds nothing.
func (g *Group) tryReduce(rank, root int, data, own []float32) error {
	if err := g.rootLive("reduce", root); err != nil {
		return err
	}
	v, err := g.enter(rank, data)
	if err != nil {
		return err
	}
	if rank == root {
		clear(data)
		for r := 0; r < g.n; r++ {
			src := own
			if r != root {
				src = g.bufs[r] //lint:ignore guardedby the entry barrier orders this read after rank r published its buffer
			}
			for i, x := range src {
				data[i] += x
			}
		}
	}
	return g.exit(rank, v.epoch)
}

// AllReduceMean is allReduce followed by division by the size of the
// collective that completed — the gradient averaging step of SSGD. After a
// shrink the divisor is the survivor count, so the mean stays a mean.
func (g *Group) AllReduceMean(rank int, data []float32) error {
	size, err := g.allReduce(rank, data)
	if err != nil {
		return err
	}
	if size <= 1 {
		return nil
	}
	inv := 1 / float32(size)
	for i := range data {
		data[i] *= inv
	}
	return nil
}
