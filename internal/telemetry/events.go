package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync/atomic"
	"time"
)

// Flight recorder: a fixed-capacity lock-free ring of structured events.
// Where the metrics Registry answers "how many reconnects", the recorder
// answers "what happened, in what order, just before the crash" — it is the
// post-mortem record for the fault-tolerance machinery (reconnects, deadline
// poisonings, sequence reaping, re-elections, group shrink, chaos faults).
//
// The record path is allocation-free and safe from any goroutine: one atomic
// add claims a slot, four atomic stores fill it. Like the Tracer ring, a
// wrapped ring overwrites the oldest events (Dropped counts them) and the
// export paths read slots unsynchronized — a torn in-flight event decodes as
// garbage-but-harmless data, never a crash.

// EventKind enumerates the structured events the recorder understands.
type EventKind uint8

const (
	// EvNone is the zero kind (an unwritten slot).
	EvNone EventKind = iota
	// EvReconnect: a SupervisedClient re-dialed its server. a=clientID b=attempt.
	EvReconnect
	// EvDeadlineFired: a per-op deadline expired and poisoned the conn. a=clientID.
	EvDeadlineFired
	// EvRetriesExhausted: a supervised op ran out of retry budget. a=clientID b=attempts.
	EvRetriesExhausted
	// EvConnError: a server handler exited on a transport error. a=total conn errors.
	EvConnError
	// EvWorkerDead: a liveness tracker declared a rank dead. a=observer rank b=dead rank.
	EvWorkerDead
	// EvReElection: the termination master changed. a=observer rank b=new master.
	EvReElection
	// EvGroupShrink: a HybridGroup shrank past a failed member. a=member rank.
	EvGroupShrink
	// EvChaosCrash: faults.RestartableServer crashed the serving plane. a=crash count.
	EvChaosCrash
	// EvChaosRestart: the serving plane came back. a=crash count.
	EvChaosRestart
	// EvFaultInjected: the fault injector fired. a=fault kind (0 drop, 1 delay, 2 partial).
	EvFaultInjected
	// EvCrashDump: the recorder itself was dumped on a fatal signal. a=signal number.
	EvCrashDump
	// EvShmMap: a segment fd was passed to a mapping client. a=shm key b=mapped bytes.
	EvShmMap
	// EvShmLeaseReaped: a dead client's shm lease was reaped. a=lease b=lock words cleared.
	EvShmLeaseReaped

	// NumEventKinds is the number of named kinds.
	NumEventKinds = int(EvShmLeaseReaped) + 1
)

var eventNames = [NumEventKinds]string{
	"none", "reconnect", "deadline_fired", "retries_exhausted",
	"conn_error", "worker_dead", "re_election", "group_shrink",
	"chaos_crash", "chaos_restart", "fault_injected",
	"crash_dump", "shm_map", "shm_lease_reaped",
}

// eventArgNames labels the A/B/C payload slots per kind ("" = unused).
var eventArgNames = [NumEventKinds][3]string{
	EvReconnect:        {"client", "attempt", ""},
	EvDeadlineFired:    {"client", "", ""},
	EvRetriesExhausted: {"client", "attempts", ""},
	EvConnError:        {"total", "", ""},
	EvWorkerDead:       {"observer", "rank", ""},
	EvReElection:       {"observer", "master", ""},
	EvGroupShrink:      {"member", "", ""},
	EvChaosCrash:       {"crashes", "", ""},
	EvChaosRestart:     {"crashes", "", ""},
	EvFaultInjected:    {"fault", "", ""},
	EvCrashDump:        {"signal", "", ""},
	EvShmMap:           {"key", "bytes", ""},
	EvShmLeaseReaped:   {"lease", "locks", ""},
}

// String returns the snake_case event name.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one decoded flight-recorder entry.
type Event struct {
	UnixNano int64     `json:"unix_nano"`
	Kind     EventKind `json:"-"`
	A        int64     `json:"a,omitempty"`
	B        int64     `json:"b,omitempty"`
	C        int64     `json:"c,omitempty"`
}

// eventJSON is the wire form: kind as a string plus labeled args.
type eventJSON struct {
	Time string           `json:"time"`
	Kind string           `json:"kind"`
	Args map[string]int64 `json:"args,omitempty"`
}

// eventSlot is one ring slot; all fields atomic for the same reason as
// slotRec (post-wrap aliasing).
type eventSlot struct {
	t    atomic.Int64
	meta atomic.Int64 // EventKind
	a    atomic.Int64
	b    atomic.Int64
	c    atomic.Int64
}

// EventRing is the fixed-capacity recorder. The zero *EventRing is inert.
type EventRing struct {
	slots []eventSlot
	pos   atomic.Int64
}

// NewEventRing returns a recorder with room for capacity events (minimum 64).
func NewEventRing(capacity int) *EventRing {
	if capacity < 64 {
		capacity = 64
	}
	return &EventRing{slots: make([]eventSlot, capacity)}
}

// Record appends one event. Zero-alloc, lock-free, nil-safe.
//
//shm:hotpath
func (r *EventRing) Record(kind EventKind, a, b, c int64) {
	if r == nil {
		return
	}
	idx := r.pos.Add(1) - 1
	slot := &r.slots[int(idx%int64(len(r.slots)))]
	slot.t.Store(time.Now().UnixNano())
	slot.meta.Store(int64(kind))
	slot.a.Store(a)
	slot.b.Store(b)
	slot.c.Store(c)
}

// Len returns the number of events currently held (≤ capacity).
func (r *EventRing) Len() int {
	if r == nil {
		return 0
	}
	n := r.pos.Load()
	if n > int64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (r *EventRing) Dropped() int64 {
	if r == nil {
		return 0
	}
	if n := r.pos.Load(); n > int64(len(r.slots)) {
		return n - int64(len(r.slots))
	}
	return 0
}

// Snapshot decodes the live events, oldest first (export path; allocates).
func (r *EventRing) Snapshot() []Event {
	n := r.Len()
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	start := 0
	if total := r.pos.Load(); total > int64(len(r.slots)) {
		start = int(total % int64(len(r.slots)))
	}
	for i := 0; i < n; i++ {
		s := &r.slots[(start+i)%len(r.slots)]
		out = append(out, Event{
			UnixNano: s.t.Load(),
			Kind:     EventKind(s.meta.Load()),
			A:        s.a.Load(),
			B:        s.b.Load(),
			C:        s.c.Load(),
		})
	}
	return out
}

// args builds the labeled arg map for export; nil when the kind takes none.
func (e Event) args() map[string]int64 {
	if int(e.Kind) >= NumEventKinds {
		return map[string]int64{"a": e.A, "b": e.B, "c": e.C}
	}
	names := eventArgNames[e.Kind]
	vals := [3]int64{e.A, e.B, e.C}
	var m map[string]int64
	for i, name := range names {
		if name == "" {
			continue
		}
		if m == nil {
			m = make(map[string]int64, 3)
		}
		m[name] = vals[i]
	}
	return m
}

// WriteJSON emits the events as a JSON array of {time, kind, args} objects
// (the /debug/events payload).
func (r *EventRing) WriteJSON(w io.Writer) error {
	evs := r.Snapshot()
	out := make([]eventJSON, len(evs))
	for i, e := range evs {
		out[i] = eventJSON{
			Time: time.Unix(0, e.UnixNano).UTC().Format(time.RFC3339Nano),
			Kind: e.Kind.String(),
			Args: e.args(),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteText emits a human-readable dump, one event per line.
func (r *EventRing) WriteText(w io.Writer) error {
	evs := r.Snapshot()
	if _, err := fmt.Fprintf(w, "flight recorder: %d events (%d dropped)\n", len(evs), r.Dropped()); err != nil {
		return err
	}
	for _, e := range evs {
		ts := time.Unix(0, e.UnixNano).UTC().Format("15:04:05.000000")
		if _, err := fmt.Fprintf(w, "%s %-18s", ts, e.Kind.String()); err != nil {
			return err
		}
		if int(e.Kind) < NumEventKinds {
			names := eventArgNames[e.Kind]
			vals := [3]int64{e.A, e.B, e.C}
			for i, name := range names {
				if name == "" {
					continue
				}
				if _, err := fmt.Fprintf(w, " %s=%d", name, vals[i]); err != nil {
					return err
				}
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// defaultEvents is the process-global recorder. Components record into it
// via RecordEvent without plumbing; CLIs dump it on fatal exit.
var defaultEvents = NewEventRing(4096)

// FlightRecorder returns the process-global flight recorder.
func FlightRecorder() *EventRing { return defaultEvents }

// RecordEvent records into the process-global recorder. Zero-alloc.
//
//shm:hotpath
func RecordEvent(kind EventKind, a, b, c int64) { defaultEvents.Record(kind, a, b, c) }

// DumpEvents writes the process-global recorder as text to path (0644).
func DumpEvents(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: create event dump: %w", err)
	}
	if err := defaultEvents.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// DumpEventsOnSignal installs a handler that, on any of sigs (SIGQUIT by
// convention), records EvCrashDump, writes the text dump to path, logs the
// path via logf, then restores the default handler and re-raises the signal
// so the runtime's usual behavior (e.g. the SIGQUIT stack dump) still runs.
// The returned stop function uninstalls the handler.
func DumpEventsOnSignal(path string, logf func(format string, args ...any), sigs ...os.Signal) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, sigs...)
	go func() {
		sig, ok := <-ch
		if !ok {
			return
		}
		RecordEvent(EvCrashDump, 0, 0, 0)
		if err := DumpEvents(path); err == nil && logf != nil {
			logf("flight recorder dump: %s", path)
		} else if err != nil && logf != nil {
			logf("flight recorder dump failed: %v", err)
		}
		signal.Reset(sig)
		if p, err := os.FindProcess(os.Getpid()); err == nil {
			_ = p.Signal(sig)
		}
	}()
	return func() {
		signal.Stop(ch)
		close(ch)
	}
}
