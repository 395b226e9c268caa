// Package lockorder is the golden corpus for the lockorder analyzer: a
// seeded two-lock deadlock cycle (direct and through a callee), a
// self-edge through a lock-and-return-held helper like smb's lockWait, a
// self-edge between two gates taken and deferred-released through wrapper
// methods, a consistently-ordered pair that must stay silent, and a
// suppressed self-edge proving //lint:ignore flows through the program
// engine.
package lockorder

import "sync"

type Table struct{ mu sync.Mutex }

type Journal struct{ mu sync.Mutex }

// transferAB locks the table, then the journal.
func transferAB(t *Table, j *Journal) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j.mu.Lock() // want `transferAB acquires lockorder\.Journal\.mu while holding lockorder\.Table\.mu, but the reverse order also occurs: lock-order cycle`
	defer j.mu.Unlock()
}

// transferBA locks in the opposite order: the seeded deadlock.
func transferBA(t *Table, j *Journal) {
	j.mu.Lock()
	defer j.mu.Unlock()
	t.mu.Lock() // want `transferBA acquires lockorder\.Table\.mu while holding lockorder\.Journal\.mu, but the reverse order also occurs: lock-order cycle`
	defer t.mu.Unlock()
}

type Stats struct{ mu sync.Mutex }

type Index struct{ mu sync.Mutex }

// statsThenIndex takes Index.mu through a callee: the edge must be found
// interprocedurally, at the call site.
func statsThenIndex(s *Stats, i *Index) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lockIndex(i) // want `statsThenIndex acquires lockorder\.Index\.mu while holding lockorder\.Stats\.mu, but the reverse order also occurs: lock-order cycle`
	i.mu.Unlock()
}

func lockIndex(i *Index) {
	i.mu.Lock()
}

// indexThenStats is the reverse order, closing the cycle.
func indexThenStats(s *Stats, i *Index) {
	i.mu.Lock()
	s.mu.Lock() // want `indexThenStats acquires lockorder\.Stats\.mu while holding lockorder\.Index\.mu, but the reverse order also occurs: lock-order cycle`
	s.mu.Unlock()
	i.mu.Unlock()
}

type striped struct{ locks [4]sync.Mutex }

// acquire locks mu and returns still holding it, like smb's lockWait; the
// analyzer must learn "parameter 0 escapes locked" from the summary.
func acquire(mu *sync.Mutex) { mu.Lock() }

// pair re-acquires its own stripe class while holding it: safe only under
// a key ordering the model cannot see, so it must be flagged.
func (s *striped) pair(a, b int) {
	acquire(&s.locks[a])
	acquire(&s.locks[b]) // want `\(\*striped\)\.pair acquires lockorder\.striped\.locks while already holding it`
	s.locks[b].Unlock()
	s.locks[a].Unlock()
}

type Meta struct{ mu sync.Mutex }

// metaThenTable nests in one consistent order; no cycle, no finding.
func metaThenTable(m *Meta, t *Table) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t.mu.Lock()
	t.mu.Unlock()
}

type ring struct{ slots [2]sync.Mutex }

// advance re-locks its own class in slot order; the slot index is the
// external ordering, documented via the suppression.
func (r *ring) advance() {
	r.slots[0].Lock()
	//lint:ignore lockorder slot index order makes the re-acquisition safe
	r.slots[1].Lock()
	r.slots[1].Unlock()
	r.slots[0].Unlock()
}

type gated struct{ gate sync.RWMutex }

func (g *gated) rlock()   { g.gate.RLock() }
func (g *gated) runlock() { g.gate.RUnlock() }

// pairGates holds two gates of one class, each released by a deferred
// wrapper call that runs only at return: the second acquisition happens
// while the first gate is still held, so the self-edge must be seen.
func pairGates(a, b *gated) {
	a.rlock()
	defer a.runlock()
	b.rlock() // want `pairGates acquires lockorder\.gated\.gate while already holding it`
	defer b.runlock()
}
