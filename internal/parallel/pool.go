// Package parallel provides the bounded worker-pool runtime underneath the
// compute and data-path hot loops. The design goals, in order:
//
//  1. Determinism. For(n, grain, fn) partitions [0, n) into contiguous
//     ranges whose boundaries depend only on (n, grain, pool width) — never
//     on runtime scheduling. A kernel that writes disjoint outputs per range
//     and keeps a fixed accumulation order inside each range therefore
//     produces bit-identical results at every pool width and on every run.
//  2. No per-call goroutine spawn. Workers are long-lived and pulled from a
//     reused pool; a For call only pushes range descriptors onto a channel.
//     Steady-state dispatch allocates nothing.
//  3. No deadlock under nesting. A For issued from inside a worker helps
//     drain the shared queue instead of blocking, so recursive parallelism
//     degrades to inline execution rather than wedging the pool.
package parallel

import (
	"runtime"
	"sync"
)

// Ranger is the allocation-free dispatch target: a kernel packages its
// operands in a (typically pooled) struct and implements Range(lo, hi).
// Storing a pointer in the interface does not allocate, unlike a closure
// that captures its operands, so ForRanger keeps the steady-state dispatch
// path at zero allocations per call end to end.
type Ranger interface {
	Range(lo, hi int)
}

// task is one contiguous index range handed to a worker. Exactly one of fn
// and r is set.
type task struct {
	fn     func(lo, hi int)
	r      Ranger
	lo, hi int
	done   *sync.WaitGroup
}

// run executes the task's range and signals completion.
func (t task) run() {
	if t.fn != nil {
		t.fn(t.lo, t.hi)
	} else {
		t.r.Range(t.lo, t.hi)
	}
	t.done.Done()
}

// joinFree recycles the per-For join state. A WaitGroup is reusable once
// Wait has returned, so recycling it removes the one heap allocation a
// dispatching For call used to pay (the WaitGroup escaped through the task
// channel). It is a Freelist rather than a sync.Pool so the zero-alloc
// dispatch contract survives GC cycles (see freelist.go).
var joinFree = NewFreelist[sync.WaitGroup](16)

// Pool is a fixed-width worker pool. The zero value is not usable; call
// NewPool. A Pool of width w runs at most w ranges concurrently: w-1
// long-lived worker goroutines plus the calling goroutine, which always
// participates (so a width-1 pool is plain inline execution).
type Pool struct {
	width int
	jobs  chan task

	closeOnce sync.Once
	wg        sync.WaitGroup // joins the worker goroutines on Close
}

// NewPool returns a pool of the given width (minimum 1). Widths above 1
// spawn width-1 persistent workers that live until Close.
func NewPool(width int) *Pool {
	if width < 1 {
		width = 1
	}
	p := &Pool{
		width: width,
		// Buffer a few tasks per worker so dispatch rarely blocks; the
		// select-default fallback in For covers the full case.
		jobs: make(chan task, 4*width),
	}
	for i := 1; i < width; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for t := range p.jobs {
				t.run()
			}
		}()
	}
	return p
}

// Width returns the pool's concurrency width.
func (p *Pool) Width() int { return p.width }

// Close shuts the worker goroutines down and waits for them to exit. For
// must not be called after (or concurrently with) Close. The package-level
// default pool is never closed; it lives for the process.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		close(p.jobs)
		p.wg.Wait()
	})
}

// chunkSize returns the deterministic range length for an n-element For:
// an even split across the pool, floored at grain so tiny slices don't pay
// dispatch overhead. It depends only on (n, grain, width).
func chunkSize(n, grain, width int) int {
	if grain < 1 {
		grain = 1
	}
	chunk := (n + width - 1) / width
	if chunk < grain {
		chunk = grain
	}
	return chunk
}

// For partitions [0, n) into contiguous ranges of chunkSize(n, grain,
// p.Width()) elements (the last range absorbs the remainder) and runs
// fn(lo, hi) once per range, concurrently across the pool. It returns when
// every range has completed. fn must be safe to call concurrently on
// disjoint ranges; ranges never overlap.
//
// The partition is a pure function of (n, grain, pool width), which is the
// determinism contract the numeric kernels rely on: each output element is
// produced entirely inside one range, so its floating-point accumulation
// order is fixed regardless of how ranges are scheduled.
func (p *Pool) For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunk := chunkSize(n, grain, p.width)
	if chunk >= n || p.width == 1 {
		fn(0, n)
		return
	}
	p.dispatch(n, chunk, fn, nil)
}

// ForRanger is For with a Ranger target instead of a closure: it runs
// r.Range(lo, hi) once per partition range with the identical deterministic
// partition. Kernels on zero-alloc paths hand in a pooled operand struct so
// the whole dispatch — partition, queueing, join — allocates nothing.
//
//shm:hotpath
func (p *Pool) ForRanger(n, grain int, r Ranger) {
	if n <= 0 {
		return
	}
	chunk := chunkSize(n, grain, p.width)
	if chunk >= n || p.width == 1 {
		r.Range(0, n)
		return
	}
	p.dispatch(n, chunk, nil, r)
}

// runRange invokes whichever dispatch target is set on [lo, hi).
func runRange(fn func(lo, hi int), r Ranger, lo, hi int) {
	if fn != nil {
		fn(lo, hi)
	} else {
		r.Range(lo, hi)
	}
}

// dispatch fans ranges of [0, n) out across the pool and joins them. The
// join state comes from joinFree so a dispatching call allocates nothing.
func (p *Pool) dispatch(n, chunk int, fn func(lo, hi int), r Ranger) {
	done := joinFree.Get()
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi >= n {
			// Caller runs the final range itself — it would otherwise idle.
			runRange(fn, r, lo, n)
			continue
		}
		done.Add(1)
		select {
		case p.jobs <- task{fn, r, lo, hi, done}:
		default:
			// Queue full (deep nesting or a saturated pool): run inline so
			// progress never depends on a free worker.
			runRange(fn, r, lo, hi)
			done.Done()
		}
	}
	// Help drain the queue before blocking: any task still queued — ours or
	// a nested caller's — can run here, which keeps nested For calls from
	// deadlocking when every worker is itself waiting on subtasks.
	for {
		select {
		case t := <-p.jobs:
			t.run()
			continue
		default:
		}
		break
	}
	done.Wait()
	joinFree.Put(done)
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the shared process-wide pool, created on first use with
// width GOMAXPROCS. Its workers are long-lived by design (see package doc);
// it is never closed.
func Default() *Pool {
	defaultOnce.Do(func() {
		defaultPool = NewPool(runtime.GOMAXPROCS(0))
	})
	return defaultPool
}

// For runs fn over [0, n) on the default pool; see Pool.For.
func For(n, grain int, fn func(lo, hi int)) {
	Default().For(n, grain, fn)
}

// ForRanger runs r over [0, n) on the default pool; see Pool.ForRanger.
func ForRanger(n, grain int, r Ranger) {
	Default().ForRanger(n, grain, r)
}

// DefaultWidth returns the default pool's width. Kernel dispatchers use it
// to skip parallel-friendly (but scalar-hostile) code paths when the
// process effectively runs single-threaded.
func DefaultWidth() int { return Default().Width() }
