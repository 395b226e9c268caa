package simnet

import "fmt"

// Synchronization primitives for simulated processes. Exactly one goroutine
// (either the scheduler or the single running process) executes at a time,
// with happens-before edges through the yield/resume channels, so these
// primitives mutate scheduler state directly without locks.

// yieldBlock parks a process until some primitive calls unblock.
const yieldBlock yieldKind = 100

func (p *Proc) block() {
	p.sim.yield <- yieldMsg{kind: yieldBlock, proc: p}
	<-p.resume
}

func (s *Simulation) unblock(p *Proc) {
	s.ready = append(s.ready, p)
}

// Semaphore is a counting semaphore in virtual time. A Semaphore with
// capacity 1 is the mutex guarding SEASGD's T1+T2 vs T.A1–T.A4 critical
// sections (Fig. 6).
type Semaphore struct {
	sim     *Simulation
	count   int
	waiters []*Proc
}

// NewSemaphore returns a semaphore with the given initial count.
func (s *Simulation) NewSemaphore(count int) *Semaphore {
	if count < 0 {
		count = 0
	}
	return &Semaphore{sim: s, count: count}
}

// Acquire takes one unit, blocking the calling process in virtual time if
// none is available.
func (m *Semaphore) Acquire(p *Proc) {
	if m.count > 0 {
		m.count--
		return
	}
	m.waiters = append(m.waiters, p)
	p.block()
}

// Release returns one unit, waking the longest-waiting process if any.
func (m *Semaphore) Release() {
	if len(m.waiters) > 0 {
		next := m.waiters[0]
		m.waiters = m.waiters[1:]
		m.sim.unblock(next)
		return
	}
	m.count++
}

// Barrier releases all participants once the last one arrives — the
// synchronization point of SSGD gradient aggregation.
type Barrier struct {
	sim     *Simulation
	n       int
	arrived int
	waiters []*Proc
	gen     int
}

// NewBarrier returns a reusable barrier for n participants.
func (s *Simulation) NewBarrier(n int) (*Barrier, error) {
	if n < 1 {
		return nil, fmt.Errorf("simnet: barrier size %d < 1", n)
	}
	return &Barrier{sim: s, n: n}, nil
}

// Wait blocks the calling process until all n participants have arrived.
func (b *Barrier) Wait(p *Proc) {
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		for _, w := range b.waiters {
			b.sim.unblock(w)
		}
		b.waiters = b.waiters[:0]
		return
	}
	b.waiters = append(b.waiters, p)
	p.block()
}

// Queue is an unbounded FIFO message queue between simulated processes;
// the request channel of the SMB server model.
type Queue[T any] struct {
	sim     *Simulation
	items   []T
	waiters []*Proc
	closed  bool
}

// NewQueue returns an empty queue.
func NewQueue[T any](s *Simulation) *Queue[T] {
	return &Queue[T]{sim: s}
}

// Push appends an item, waking one waiting receiver.
func (q *Queue[T]) Push(item T) {
	if q.closed {
		panic("simnet: push to closed queue")
	}
	q.items = append(q.items, item)
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		q.sim.unblock(w)
	}
}

// Pop removes the oldest item, blocking the calling process in virtual time
// until one is available. ok is false if the queue was closed and drained.
func (q *Queue[T]) Pop(p *Proc) (item T, ok bool) {
	for len(q.items) == 0 {
		if q.closed {
			var zero T
			return zero, false
		}
		q.waiters = append(q.waiters, p)
		p.block()
	}
	item = q.items[0]
	q.items = q.items[1:]
	return item, true
}

// Close marks the queue closed and wakes all waiting receivers, which will
// observe ok == false once drained.
func (q *Queue[T]) Close() {
	q.closed = true
	for _, w := range q.waiters {
		q.sim.unblock(w)
	}
	q.waiters = nil
}
