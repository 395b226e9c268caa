package smb

import (
	"sync"
	"sync/atomic"
	"time"

	"shmcaffe/internal/telemetry"
)

// Instrumentation for the SMB data path. The store and both client
// transports are observable on demand: call Instrument with a telemetry
// registry before traffic starts and every Read/Write/Accumulate feeds
// latency histograms in addition to the always-on atomic counters. The
// instruments are designed to hold the PR 2 zero-alloc contract with
// telemetry enabled — histograms record with atomics into preallocated
// storage and the timing uses time.Now/Since, which do not allocate
// (alloc_test.go runs its steady-state guards against an instrumented
// store and client).

// storeInstruments is the store's optional latency instrumentation,
// installed atomically by Instrument.
type storeInstruments struct {
	readLatency     *telemetry.Histogram
	writeLatency    *telemetry.Histogram
	accLatency      *telemetry.Histogram
	stripeWait      *telemetry.Histogram
	snapReadLatency *telemetry.Histogram
}

// Instrument registers the store's observable state on reg and enables
// per-operation latency timing. Counters are exported as scrape-time views
// of the existing atomic stats, so instrumenting adds no hot-path cost
// beyond the histogram observes. Call once, before serving traffic;
// duplicate metric names panic (Registry semantics).
func (s *Store) Instrument(reg *telemetry.Registry) {
	reg.CounterFunc("smb_creates_total", "segments created", s.stats.creates.Load)
	reg.CounterFunc("smb_attaches_total", "handles attached", s.stats.attaches.Load)
	reg.CounterFunc("smb_reads_total", "Read verbs served", s.stats.reads.Load)
	reg.CounterFunc("smb_writes_total", "Write verbs served", s.stats.writes.Load)
	reg.CounterFunc("smb_accumulates_total", "Accumulate verbs served (Eq. 7)", s.stats.accumulates.Load)
	reg.CounterFunc("smb_bytes_read_total", "payload bytes served to Read", s.stats.bytesRead.Load)
	reg.CounterFunc("smb_bytes_written_total", "payload bytes stored by Write/Accumulate", s.stats.bytesWrite.Load)
	reg.GaugeFunc("smb_segments", "live segments in the store", func() float64 {
		return float64(s.SegmentCount())
	})
	// Shared-memory transport counters live on the store (not the server)
	// so chaos frontends that cycle server incarnations over one store keep
	// a continuous view. The op counters are scrape-time sums over each
	// exported segment's control page — mapped clients bump those words
	// directly, so this is the only place the server can see their traffic.
	reg.CounterFunc("smb_shm_fd_passed_total",
		"segment file descriptors passed to mapping clients", s.shmc.fdPassed.Load)
	reg.GaugeFunc("smb_shm_map_bytes",
		"bytes of segment+control currently handed out to client mappings",
		func() float64 { return float64(s.shmc.mapBytes.Load()) })
	reg.CounterFunc("smb_shm_leases_total",
		"shared-memory leases granted to control connections", s.shmc.leases.Load)
	reg.CounterFunc("smb_shm_reaped_locks_total",
		"shared stripe-lock words force-released after a mapped peer died", s.shmc.reapedLocks.Load)
	reg.CounterFunc("smb_shm_reaps_total",
		"dead-lease reap sweeps that cleared at least one lock word", s.shmc.reaps.Load)
	reg.CounterFunc("smb_shm_alloc_fallbacks_total",
		"memfd segment allocations that fell back to heap backing", s.shmc.allocFails.Load)
	reg.GaugeFunc("smb_shm_segments", "live memfd-backed segments",
		func() float64 { return float64(s.ShmStats().Exported) })
	reg.CounterFunc(`smb_shm_ops_total{op="accumulate"}`,
		"accumulates applied through client mappings", func() int64 { return s.shmCtlSum(shmOffAccumulates) })
	reg.CounterFunc(`smb_shm_ops_total{op="write"}`,
		"writes applied through client mappings", func() int64 { return s.shmCtlSum(shmOffWrites) })
	reg.CounterFunc(`smb_shm_ops_total{op="read"}`,
		"reads served through client mappings", func() int64 { return s.shmCtlSum(shmOffReads) })
	reg.CounterFunc("smb_shm_bytes_accumulated_total",
		"payload bytes accumulated through client mappings", func() int64 { return s.shmCtlSum(shmOffBytesAcc) })
	// Snapshot tier (snapshot.go): consistency-cut health. The retries
	// counter is expected to tick under write storms (seqlock collisions are
	// normal); retries_exhausted staying at zero is the serving SLO — it
	// means no snapshot read ever fell back to blocking on a stripe lock.
	reg.CounterFunc("smb_snapshots_total", "snapshots taken", s.snapc.taken.Load)
	reg.GaugeFunc("smb_snapshots_live", "published snapshots not yet released",
		func() float64 { return float64(s.snapc.live.Load()) })
	reg.CounterFunc("smb_snap_reads_total", "SnapRead verbs served", s.snapc.reads.Load)
	reg.CounterFunc("smb_snap_cow_pages_total",
		"stripe pre-images copied because a write landed on a live snapshot", s.snapc.cowPages.Load)
	reg.CounterFunc("smb_snap_read_retries_total",
		"seqlock retries during snapshot reads (torn stripes re-read)", s.snapc.retries.Load)
	reg.CounterFunc("smb_snap_retries_exhausted_total",
		"snapshot stripe reads that exhausted lock-free retries and fell back to the stripe lock", s.snapc.exhausted.Load)
	reg.CounterFunc("smb_snap_gate_timeouts_total",
		"shared-memory snapshot gates that timed out draining mapped writers and degraded to per-stripe copy", s.snapc.gateFails.Load)
	s.inst.Store(&storeInstruments{
		readLatency: reg.Histogram("smb_read_seconds",
			"server-side Read latency", telemetry.DefLatencyBuckets),
		writeLatency: reg.Histogram("smb_write_seconds",
			"server-side Write latency", telemetry.DefLatencyBuckets),
		accLatency: reg.Histogram("smb_accumulate_seconds",
			"server-side Accumulate latency (the T.A3 cost)", telemetry.DefLatencyBuckets),
		stripeWait: reg.Histogram("smb_accumulate_stripe_wait_seconds",
			"total time one Accumulate spent blocked on stripe locks — contention between workers colliding on the same 64 KiB of Wg",
			telemetry.DefLatencyBuckets),
		snapReadLatency: reg.Histogram("smb_snap_read_seconds",
			"server-side snapshot read latency (the serving hot path)", telemetry.DefLatencyBuckets),
	})
}

// lockWait acquires mu exclusively, returning nanoseconds spent blocked when
// timed; the untimed path is exactly mu.Lock().
func lockWait(mu *sync.RWMutex, timed bool) int64 {
	if !timed {
		mu.Lock()
		return 0
	}
	t0 := time.Now()
	mu.Lock()
	return time.Since(t0).Nanoseconds()
}

// Instrument enables round-trip timing on the wire client, exporting
// smb_client_rtt_seconds{op=...} for the three data verbs. Call before
// issuing traffic.
func (c *StreamClient) Instrument(reg *telemetry.Registry) {
	const help = "wire-client round-trip latency per verb"
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rtt[opRead] = reg.Histogram(`smb_client_rtt_seconds{op="read"}`, help, telemetry.DefLatencyBuckets)
	c.rtt[opWrite] = reg.Histogram(`smb_client_rtt_seconds{op="write"}`, help, telemetry.DefLatencyBuckets)
	c.rtt[opAccumulate] = reg.Histogram(`smb_client_rtt_seconds{op="accumulate"}`, help, telemetry.DefLatencyBuckets)
}

// Instrument registers the server's connection-health counters: handler
// loops that exited on transport errors (satellite of the silent-drop fix
// in connDone) and the live connection gauge. Call once, before serving
// traffic.
func (s *Server) Instrument(reg *telemetry.Registry) {
	reg.CounterFunc("smb_server_conn_errors_total",
		"connection handlers that exited on a transport error (not a clean close)",
		s.connErrors.Load)
	reg.GaugeFunc("smb_server_connections", "live connection handlers", func() float64 {
		return float64(s.active.Load())
	})
	// Per-transport split of the same gauge: a connection that negotiated a
	// shared-memory lease counts as shm, everything else as tcp (the
	// unlabeled total above stays for dashboards that predate the split).
	reg.GaugeFunc(`smb_server_connections{transport="tcp"}`,
		"live connection handlers without a shared-memory lease", func() float64 {
			return float64(s.active.Load() - s.activeShm.Load())
		})
	reg.GaugeFunc(`smb_server_connections{transport="shm"}`,
		"live control connections holding a shared-memory lease", func() float64 {
			return float64(s.activeShm.Load())
		})
	reg.CounterFunc("smb_seq_duplicates_total",
		"sequence-stamped accumulates acknowledged as already-applied duplicates",
		s.store.stats.seqDups.Load)
	s.dispatchLat.Store(reg.Histogram("smb_server_dispatch_seconds",
		"per-frame dispatch latency, read-to-reply (the srv.dispatch span); recorded only with a tracer installed",
		telemetry.DefLatencyBuckets))
}

// supervisedInstruments is the supervised client's recovery telemetry.
type supervisedInstruments struct {
	reconnects *telemetry.Counter
	retries    *telemetry.Counter
	timeouts   *telemetry.Counter
	dupAcks    *telemetry.Counter
}

// newSupervisedInstruments registers a supervised client's recovery
// counters (SupervisedConfig.Metrics): smb_supervised_reconnects_total,
// smb_supervised_retries_total, smb_supervised_timeouts_total,
// smb_supervised_dup_acks_total, and the smb_supervised_pushes_total view of
// pushes, whose sum across clients equals the server's
// smb_accumulates_total under the exactly-once invariant.
func newSupervisedInstruments(reg *telemetry.Registry, pushes *atomic.Int64) *supervisedInstruments {
	reg.CounterFunc("smb_supervised_pushes_total",
		"logical pushes applied exactly once", pushes.Load)
	return &supervisedInstruments{
		reconnects: reg.Counter("smb_supervised_reconnects_total", "connections re-established after a failure"),
		retries:    reg.Counter("smb_supervised_retries_total", "operation attempts beyond the first"),
		timeouts:   reg.Counter("smb_supervised_timeouts_total", "attempts failed on a fired per-op deadline"),
		dupAcks:    reg.Counter("smb_supervised_dup_acks_total", "pushes acknowledged as server-side duplicates"),
	}
}
