// Package faults is the repository's fault-injection toolkit: deterministic,
// seeded corruption of the transports the SMB data path runs over. The paper's
// platform assumes the memory server and every worker stay up for the whole
// job; this package exists to manufacture the opposite — dropped connections,
// delayed frames, partial writes, and whole-server crash/restart cycles — so
// the supervision layer (smb.SupervisedClient, the crash-aware termination
// alignment in internal/core) can be tested against failures that are
// reproducible from a seed instead of waiting for real hardware to misbehave.
//
// Two integration surfaces:
//
//   - Conn wraps any net.Conn (wire transports; see conn.go),
//   - RestartableServer crash/restarts a serving frontend over a persistent
//     backend (the SMB test servers and cmd/smbserver chaos mode; restart.go).
package faults

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"shmcaffe/internal/telemetry"
)

// ErrInjected marks every failure this package manufactures; tests and
// retry loops match it with errors.Is to distinguish injected faults from
// genuine ones.
var ErrInjected = errors.New("faults: injected failure")

// Config declares the fault mix. The zero value injects nothing.
type Config struct {
	// DropRate is the probability, per connection operation, that the
	// connection fails hard (the op errors and the connection is dead
	// from then on).
	DropRate float64
	// DelayRate is the probability, per connection operation, of an
	// injected stall of up to MaxDelay.
	DelayRate float64
	// MaxDelay bounds an injected delay (uniform in (0, MaxDelay]).
	// Zero with a non-zero DelayRate defaults to 5ms.
	MaxDelay time.Duration
	// PartialWriteRate is the probability, per Write, that only a prefix
	// of the buffer reaches the transport before the connection dies —
	// the mid-frame truncation that desynchronizes a length-prefixed
	// protocol.
	PartialWriteRate float64
	// Seed drives the deterministic PRNG. Runs with the same seed and the
	// same single-threaded operation order inject the same faults.
	Seed uint64
}

// Fault kind codes recorded as the EvFaultInjected payload.
const (
	faultDrop int64 = iota
	faultDelay
	faultPartial
)

// Stats counts the faults an Injector has dealt.
type Stats struct {
	Drops         int64
	Delays        int64
	PartialWrites int64
}

// Injector deals faults according to a Config, from a seeded splitmix64
// stream. Safe for concurrent use; concurrency makes the per-connection
// interleaving scheduler-dependent, but the total fault budget still
// follows the seed.
type Injector struct {
	cfg Config

	mu    sync.Mutex
	state uint64 // guarded by mu

	drops    atomic.Int64
	delays   atomic.Int64
	partials atomic.Int64
}

// New returns an injector dealing cfg's fault mix.
func New(cfg Config) *Injector {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 5 * time.Millisecond
	}
	// Seed 0 and 1 must diverge immediately; splitmix64 guarantees it.
	return &Injector{cfg: cfg, state: cfg.Seed}
}

// Stats snapshots the injected-fault counters.
func (i *Injector) Stats() Stats {
	return Stats{
		Drops:         i.drops.Load(),
		Delays:        i.delays.Load(),
		PartialWrites: i.partials.Load(),
	}
}

// splitmix64 advances x and returns the next output of Vigna's splitmix64
// generator — small, stateless between calls, and good enough to turn one
// seed into an arbitrary fault schedule.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// roll draws a uniform float64 in [0, 1).
func (i *Injector) roll() float64 {
	i.mu.Lock()
	v := splitmix64(&i.state)
	i.mu.Unlock()
	return float64(v>>11) / float64(1<<53)
}

// drawDrop reports whether the next operation should drop the connection.
func (i *Injector) drawDrop() bool {
	if i.cfg.DropRate <= 0 || i.roll() >= i.cfg.DropRate {
		return false
	}
	i.drops.Add(1)
	telemetry.RecordEvent(telemetry.EvFaultInjected, faultDrop, 0, 0)
	return true
}

// drawDelay returns the injected stall for the next operation (0 = none).
func (i *Injector) drawDelay() time.Duration {
	if i.cfg.DelayRate <= 0 || i.roll() >= i.cfg.DelayRate {
		return 0
	}
	i.delays.Add(1)
	telemetry.RecordEvent(telemetry.EvFaultInjected, faultDelay, 0, 0)
	frac := i.roll()
	d := time.Duration(frac * float64(i.cfg.MaxDelay))
	if d <= 0 {
		d = time.Microsecond
	}
	return d
}

// drawPartial returns how many of n bytes survive a partial write, and
// whether a partial write was injected at all.
func (i *Injector) drawPartial(n int) (int, bool) {
	if i.cfg.PartialWriteRate <= 0 || n < 2 || i.roll() >= i.cfg.PartialWriteRate {
		return n, false
	}
	i.partials.Add(1)
	telemetry.RecordEvent(telemetry.EvFaultInjected, faultPartial, 0, 0)
	keep := 1 + int(i.roll()*float64(n-1))
	if keep >= n {
		keep = n - 1
	}
	return keep, true
}
