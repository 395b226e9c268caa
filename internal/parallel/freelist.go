package parallel

// Freelist is a fixed-capacity free list of *T for zero-alloc hot paths.
// It exists because sync.Pool is the wrong tool under a benchmark or a
// GC-heavy workload: every GC cycle demotes the pool's contents to a
// victim cache and then drops them, so a steady-state "zero-alloc" path
// quietly re-allocates its pooled state after each collection (this was
// the stray 8 B/op on tensor's BenchmarkGemm/parallel/256). A
// buffered channel is invisible to the collector: entries stay live until
// explicitly taken, so a warmed list never allocates again, at the cost
// of pinning at most `capacity` small structs for the process lifetime —
// the right trade for the handful of fixed-size dispatch structs the
// kernels recycle, and exactly the wrong one for anything unbounded.
//
// Get and Put are single non-blocking channel operations: safe for
// concurrent use, never blocking, allocation-free on hit. An overflowing
// Put drops the entry for the collector to reclaim; a draining Get falls
// back to new(T).
type Freelist[T any] struct {
	ch chan *T
}

// NewFreelist returns a Freelist holding at most capacity entries.
func NewFreelist[T any](capacity int) *Freelist[T] {
	return &Freelist[T]{ch: make(chan *T, capacity)}
}

// Get returns a recycled *T, or a fresh zero value on a miss. The caller
// owns the full struct and must reset any fields it relies on; Put does
// not clear entries.
func (f *Freelist[T]) Get() *T {
	select {
	case p := <-f.ch:
		return p
	default:
		// Miss path: the one allocation this type is allowed; steady
		// state always hits the channel once the list is warm.
		return new(T)
	}
}

// Put recycles p. The caller must not touch p afterwards. Entries whose
// fields reference caller memory should be zeroed before Put so the list
// never pins foreign arrays.
func (f *Freelist[T]) Put(p *T) {
	select {
	case f.ch <- p:
	default:
	}
}
