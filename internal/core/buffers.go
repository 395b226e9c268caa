package core

import (
	"fmt"

	"shmcaffe/internal/smb"
	"shmcaffe/internal/telemetry"
	"shmcaffe/internal/tensor"
)

// JobBuffers is one worker's view of the SMB segment layout of Fig. 5:
// the shared global-weight buffer Wg, the worker's private weight-increment
// buffer ΔWx, and the control segment carrying per-worker progress counters
// plus a stop flag (Sec. III-E).
type JobBuffers struct {
	client smb.Client
	rank   int
	n      int
	elems  int

	global  smb.Handle // Wg (shared)
	incr    smb.Handle // ΔWx (private to this worker)
	control smb.Handle // progress counters + stop flag + heartbeats
}

// Control segment layout: n int64 iteration counters, one int64 stop flag
// (slot n), then n int64 heartbeat slots (slots n+1 .. 2n). A heartbeat slot
// carries a monotonically increasing beat while its worker lives and the
// tombstone value when the worker dies on purpose (MarkDead); a worker that
// crashes without a tombstone is detected by its beat going stale (see
// livenessTracker). The termination check reads a prefix of the segment in
// one go (readControl), so the order of the three blocks is load-bearing.
func controlSize(n int) int { return ControlSegmentSlots(n) * 8 }

// ControlSegmentSlots returns the number of int64 slots in the control
// segment of an n-worker job (progress + stop flag + heartbeats).
func ControlSegmentSlots(n int) int { return 2*n + 1 }

// deadTombstone is the heartbeat value a worker writes on its way out of a
// failed Run — an explicit obituary, faster to detect than staleness.
const deadTombstone int64 = -1

// DeadTombstone is the exported view of the heartbeat tombstone, for
// diagnostics that read the control segment from outside the worker
// (fleet aggregators, tests).
const DeadTombstone = deadTombstone

// ReadGlobal fetches Wg into dst (len elems) — the T1 step. The segment's
// bytes land straight in dst's memory (the SMB wire encoding of a []float32
// is its little-endian memory), with no staging buffer and no decode pass.
// A failed read may leave dst partly overwritten; every caller treats a
// failed T1 or T.A4 read as fatal.
func (b *JobBuffers) ReadGlobal(dst []float32) error {
	if len(dst) != b.elems {
		return fmt.Errorf("read global into %d elements, want %d: %w", len(dst), b.elems, ErrConfig)
	}
	if err := b.client.Read(b.global, 0, tensor.AsBytes(dst)); err != nil {
		return fmt.Errorf("read global: %w", err)
	}
	tensor.SwapWireOrder(dst)
	return nil
}

// PushIncrement writes delta into the worker's ΔWx segment and asks the
// server to accumulate it into Wg — the whole push, Eq. (7), in one
// WriteAccumulate sent straight from delta's memory. On a big-endian host
// delta is in wire order for the duration of the call; it comes back
// unchanged on every path.
func (b *JobBuffers) PushIncrement(delta []float32) error {
	if len(delta) != b.elems {
		return fmt.Errorf("push %d elements, want %d: %w", len(delta), b.elems, ErrConfig)
	}
	tensor.SwapWireOrder(delta)
	err := b.client.WriteAccumulate(b.global, b.incr, tensor.AsBytes(delta))
	tensor.SwapWireOrder(delta)
	if err != nil {
		return fmt.Errorf("push increment: %w", err)
	}
	return nil
}

// pushTraced runs one push on track tid as one T.A3 span: the
// WriteAccumulate that stores ΔWx and folds it into Wg (Eq. 7). With
// telemetry on, a fresh cross-process trace is rooted at that span and
// handed to the client: where its frames cross a wire, the server's
// srv.dispatch/srv.acc spans for this push become children of that span in
// the merged fleet trace. push labels the trace with the caller's push
// count.
func (b *JobBuffers) pushTraced(tel *telemetry.Trainer, tid int32, push int, delta []float32) error {
	var tc telemetry.TraceContext
	if tel != nil {
		id := telemetry.NextSpanID(uint64(b.rank+1) << 48)
		tc = telemetry.TraceContext{TraceID: id, SpanID: id}
		b.client.SetTraceContext(smb.TraceContext{
			TraceID: id, SpanID: id, Rank: uint32(b.rank), Iter: uint32(push),
		})
		defer b.client.ClearTraceContext()
	}
	spA3 := tel.BeginTraced(tid, telemetry.PhaseTA3, tc)
	err := b.PushIncrement(delta)
	spA3.End()
	return err
}

// ReportProgress publishes this worker's completed iteration count to its
// control slot.
func (b *JobBuffers) ReportProgress(iter int64) error {
	return smb.WriteInt64(b.client, b.control, b.rank, iter)
}

// Progress reads every worker's published iteration count.
func (b *JobBuffers) Progress() ([]int64, error) {
	out := make([]int64, b.n)
	if err := b.ProgressInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// ProgressInto reads every worker's published iteration count into out
// (len WorldSize) without allocating — the telemetry staleness probe calls
// this on every T1 read.
func (b *JobBuffers) ProgressInto(out []int64) error {
	if len(out) != b.n {
		return fmt.Errorf("progress into %d slots, want %d: %w", len(out), b.n, ErrConfig)
	}
	return smb.ReadInt64SlotsAt(b.client, b.control, 0, out)
}

// Beat publishes this worker's heartbeat — any value strictly greater than
// the last one it published (the iteration count works). Written alongside
// ReportProgress when liveness tracking is enabled.
func (b *JobBuffers) Beat(v int64) error {
	return smb.WriteInt64(b.client, b.control, b.n+1+b.rank, v)
}

// MarkDead writes this worker's tombstone. Called best-effort on the error
// path out of Run so peers stop waiting for a worker that announced its own
// death instead of burning a full liveness timeout detecting it.
func (b *JobBuffers) MarkDead() error {
	return smb.WriteInt64(b.client, b.control, b.n+1+b.rank, deadTombstone)
}

// HeartbeatsInto reads every worker's heartbeat slot into out (len
// WorldSize) without allocating.
func (b *JobBuffers) HeartbeatsInto(out []int64) error {
	if len(out) != b.n {
		return fmt.Errorf("heartbeats into %d slots, want %d: %w", len(out), b.n, ErrConfig)
	}
	return smb.ReadInt64SlotsAt(b.client, b.control, b.n+1, out)
}

// readControl is the termination check's view of the job: ONE read of the
// control segment's first len(scratch) slots, decoded in place. scratch has
// n+1 slots (progress + stop flag; beats comes back empty) or 2n+1 (with the
// heartbeat block).
func (b *JobBuffers) readControl(scratch []int64) (progress []int64, stop bool, beats []int64, err error) {
	if err := smb.ReadInt64SlotsAt(b.client, b.control, 0, scratch); err != nil {
		return nil, false, nil, fmt.Errorf("read control: %w", err)
	}
	return scratch[:b.n], scratch[b.n] != 0, scratch[b.n+1:], nil
}

// SignalStop raises the shared stop flag; every worker observes it at its
// next termination check.
func (b *JobBuffers) SignalStop() error {
	return smb.WriteInt64(b.client, b.control, b.n, 1)
}

// StopRequested reads the shared stop flag.
func (b *JobBuffers) StopRequested() (bool, error) {
	v, err := smb.ReadInt64(b.client, b.control, b.n)
	if err != nil {
		return false, err
	}
	return v != 0, nil
}

// Elems returns the weight vector length.
func (b *JobBuffers) Elems() int { return b.elems }

// Rank returns the owning worker's rank.
func (b *JobBuffers) Rank() int { return b.rank }

// WorldSize returns the number of workers in the job.
func (b *JobBuffers) WorldSize() int { return b.n }

// Close detaches the buffers. The master should Free the shared segments
// separately once all workers are done (not done here because order
// matters across ranks).
func (b *JobBuffers) Close() error {
	var firstErr error
	for _, h := range []smb.Handle{b.global, b.incr, b.control} {
		if err := b.client.Detach(h); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
