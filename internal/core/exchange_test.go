package core

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shmcaffe/internal/nn"
	"shmcaffe/internal/smb"
)

// The exchange engine's contract, checked once over both of its drivers: a
// Worker and a single-member HybridGroup running against a client wrapper
// that counts control-segment traffic and can fail the k-th push.

var errInjectedPush = errors.New("injected push failure")

// probeClient wraps a client, fails the failAt-th WriteAccumulate (1-based;
// 0 = never) and counts the reads and writes that hit the control segment.
type probeClient struct {
	smb.Client
	failAt int64

	accs, ctlReads, ctlWrites atomic.Int64

	// Learned during the bootstrap, before any counted traffic.
	ctlKey smb.SHMKey
	ctl    smb.Handle
	ctlOK  bool
}

func (c *probeClient) Lookup(name string) (smb.SHMKey, error) {
	key, err := c.Client.Lookup(name)
	if err == nil && strings.HasSuffix(name, smb.SegmentNames{}.Control()) {
		c.ctlKey = key
	}
	return key, err
}

func (c *probeClient) Attach(key smb.SHMKey) (smb.Handle, error) {
	h, err := c.Client.Attach(key)
	if err == nil && key == c.ctlKey {
		c.ctl, c.ctlOK = h, true
	}
	return h, err
}

func (c *probeClient) Read(h smb.Handle, off int, dst []byte) error {
	if c.ctlOK && h == c.ctl {
		c.ctlReads.Add(1)
	}
	return c.Client.Read(h, off, dst)
}

func (c *probeClient) Write(h smb.Handle, off int, src []byte) error {
	if c.ctlOK && h == c.ctl {
		c.ctlWrites.Add(1)
	}
	return c.Client.Write(h, off, src)
}

func (c *probeClient) WriteAccumulate(dst, src smb.Handle, data []byte) error {
	if c.accs.Add(1) == c.failAt {
		return errInjectedPush
	}
	return c.Client.WriteAccumulate(dst, src, data)
}

// exchangeOutcome is what a driver's Run reports, reduced to what the engine
// is responsible for.
type exchangeOutcome struct {
	buffers            *JobBuffers
	iterations, pushes int
	err                error
}

// exchangeDrivers run a one-rank job through client.
var exchangeDrivers = []struct {
	name string
	run  func(t *testing.T, client smb.Client, policy TerminationPolicy, liveness time.Duration) exchangeOutcome
}{
	{"worker", func(t *testing.T, client smb.Client, policy TerminationPolicy, liveness time.Duration) exchangeOutcome {
		job := newTestJob(t, 1, 5)
		cfg := job.workerConfig(t, 0, "job")
		cfg.Client, cfg.Termination, cfg.LivenessTimeout = client, policy, liveness
		w, err := job.newWorker(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		out := exchangeOutcome{buffers: w.Buffers()}
		stats, err := w.Run()
		if out.err = err; err == nil {
			out.iterations, out.pushes = stats.Iterations, stats.Pushes
		}
		return out
	}},
	{"hybrid", func(t *testing.T, client smb.Client, policy TerminationPolicy, liveness time.Duration) exchangeOutcome {
		configs, _, _ := buildHybridJob(t, 1, 1, 5)
		cfg := configs[0]
		cfg.Client, cfg.Termination, cfg.LivenessTimeout = client, policy, liveness
		g, err := NewHybridGroup(cfg, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		out := exchangeOutcome{buffers: g.Buffers()}
		stats, err := g.Run()
		if out.err = err; err == nil {
			out.iterations, out.pushes = stats.Iterations, stats.Pushes
		}
		return out
	}},
}

func TestExchangeContract(t *testing.T) {
	for _, d := range exchangeDrivers {
		d := d
		// (a) A push failing on the update thread surfaces from Run, named;
		// the thread is joined; the obituary is written.
		t.Run(d.name+"/push-error", func(t *testing.T) {
			// A clean run first: the compute pools start lazily and stay.
			d.run(t, smb.NewLocalClient(smb.NewStore()), StopIndependently, 0)
			baseline := runtime.NumGoroutine()
			client := &probeClient{Client: smb.NewLocalClient(smb.NewStore()), failAt: 3}
			out := d.run(t, client, StopIndependently, time.Minute)
			if !errors.Is(out.err, errInjectedPush) || !strings.Contains(out.err.Error(), "update thread") {
				t.Fatalf("Run error = %v, want the injected push failure naming the update thread", out.err)
			}
			beats := make([]int64, 1)
			if err := out.buffers.HeartbeatsInto(beats); err != nil {
				t.Fatal(err)
			}
			if beats[0] != DeadTombstone {
				t.Fatalf("heartbeat after a failed run = %d, want the tombstone", beats[0])
			}
			for deadline := time.Now().Add(3 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
						runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
				}
			}
		})

		// (b)+(c) A clean independent run: every exchange's push lands
		// exactly once, the queued final one included, and the control
		// segment is written (progress) but never read.
		t.Run(d.name+"/independent", func(t *testing.T) {
			store := smb.NewStore()
			client := &probeClient{Client: smb.NewLocalClient(store)}
			out := d.run(t, client, StopIndependently, 0)
			if out.err != nil {
				t.Fatal(out.err)
			}
			if acc := store.Stats().Accumulates; int64(out.pushes) != acc || out.pushes != out.iterations {
				t.Fatalf("%d pushes, %d server accumulates, %d iterations — want all equal",
					out.pushes, acc, out.iterations)
			}
			if r, w := client.ctlReads.Load(), client.ctlWrites.Load(); r != 0 || w != int64(out.iterations) {
				t.Fatalf("control segment: %d reads, %d writes over %d iterations, want 0 and one report each",
					r, w, out.iterations)
			}
		})

		// An aligned run pays one control read per iteration, plus one write
		// for the progress report, one more for the heartbeat with liveness
		// on, and the final SignalStop.
		for _, liveness := range []time.Duration{0, time.Minute} {
			liveness := liveness
			t.Run(d.name+"/aligned/liveness="+liveness.String(), func(t *testing.T) {
				client := &probeClient{Client: smb.NewLocalClient(smb.NewStore())}
				out := d.run(t, client, StopOnMaster, liveness)
				if out.err != nil {
					t.Fatal(out.err)
				}
				wantWrites := int64(out.iterations) + 1
				if liveness > 0 {
					wantWrites += int64(out.iterations)
				}
				if r, w := client.ctlReads.Load(), client.ctlWrites.Load(); r != int64(out.iterations) || w != wantWrites {
					t.Fatalf("control segment: %d reads, %d writes over %d iterations, want %d and %d",
						r, w, out.iterations, out.iterations, wantWrites)
				}
			})
		}
	}
}

// TestExchangeStepAfterThreadDeath pins the interleaving the contract test
// only hits by chance: the update thread dies of a push error after the
// driver last polled asyncErr clean. The next steps must hand the failure
// back rather than park on a wake nobody will take.
func TestExchangeStepAfterThreadDeath(t *testing.T) {
	job := newTestJob(t, 1, 5)
	cfg := job.workerConfig(t, 0, "job")
	cfg.Client = &probeClient{Client: smb.NewLocalClient(smb.NewStore()), failAt: 1}
	w, err := job.newWorker(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	ex := w.ex
	defer ex.shutdown(nil)
	if err := ex.start(cfg.Net.Weights()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ex.step(cfg.Net.Weights()); err != nil {
		t.Fatal(err)
	}
	<-ex.done // the first push failed and took the thread with it
	stepped := make(chan error, 1)
	go func() {
		// The first of these may still find room in wake; the second cannot.
		_, _, err := ex.step(cfg.Net.Weights())
		if err == nil {
			_, _, err = ex.step(cfg.Net.Weights())
		}
		stepped <- err
	}()
	select {
	case err := <-stepped:
		if !errors.Is(err, errInjectedPush) || !strings.Contains(err.Error(), "update thread") {
			t.Fatalf("step after the thread died = %v, want the push failure naming the update thread", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("step parked on a dead update thread")
	}
}

var errInjectedRead = errors.New("injected Wg read failure")

// pushLogClient wraps a client, keeps every push it saw land, in order, and
// fails the failWgReadAt-th read of wgBytes bytes (1-based; 0 = never) after
// landing the first half of it. Only the update thread pushes, and the log
// is read after shutdown joined it.
type pushLogClient struct {
	smb.Client
	wgBytes, failWgReadAt, wgReads int
	pushes                         [][]float32
}

func (c *pushLogClient) Read(h smb.Handle, off int, dst []byte) error {
	if c.wgBytes == 0 || len(dst) != c.wgBytes {
		return c.Client.Read(h, off, dst)
	}
	if c.wgReads++; c.wgReads == c.failWgReadAt {
		if err := c.Client.Read(h, off, dst[:len(dst)/2]); err != nil {
			return err
		}
		return errInjectedRead
	}
	return c.Client.Read(h, off, dst)
}

func (c *pushLogClient) WriteAccumulate(dst, src smb.Handle, data []byte) error {
	err := c.Client.WriteAccumulate(dst, src, data)
	if err == nil {
		delta := make([]float32, len(data)/4)
		for i := range delta {
			delta[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		c.pushes = append(c.pushes, delta)
	}
	return err
}

// exchangeEngines build a one-rank driver of each kind over client, moving
// rate alpha, its replica's weights (and so Wg's seed) set to small
// integers, and hand back the driver's exchange engine and the replica slab
// it steps.
var exchangeEngines = []struct {
	name  string
	build func(t *testing.T, client smb.Client, alpha float64) (*exchange, []float32)
}{
	{"worker", func(t *testing.T, client smb.Client, alpha float64) (*exchange, []float32) {
		job := newTestJob(t, 1, 5)
		cfg := job.workerConfig(t, 0, "job")
		cfg.Client, cfg.Elastic.MovingRate = client, alpha
		setIntegerWeights(t, cfg.Net)
		w, err := job.newWorker(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		return w.ex, cfg.Net.Weights()
	}},
	{"hybrid", func(t *testing.T, client smb.Client, alpha float64) (*exchange, []float32) {
		configs, _, _ := buildHybridJob(t, 1, 1, 5)
		cfg := configs[0]
		cfg.Client, cfg.Elastic.MovingRate = client, alpha
		setIntegerWeights(t, cfg.Nets[0])
		g, err := NewHybridGroup(cfg, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return g.ex, cfg.Nets[0].Weights()
	}},
}

func setIntegerWeights(t *testing.T, net *nn.Network) {
	t.Helper()
	w := make([]float32, net.NumParams())
	for i := range w {
		w[i] = float32(i%7 - 3)
	}
	if err := net.SetFlatWeights(w); err != nil {
		t.Fatal(err)
	}
}

// TestExchangePushesEachIncrementOnce pins T.A5 to the push it guards. Steps
// run back to back on one P, so the update thread has not taken the lock for
// the previous push when the next T.A5 asks for it; T.A5 must wait for that
// push to end, or T1 and T2 overwrite an increment nobody pushed. Values are
// small dyadic rationals, so every sum is exact and the model below is the
// only correct outcome, bit for bit: each step computes its increment from
// a Wg holding every earlier push, and the server receives each increment
// exactly once. In the failing-T1 case the third step's read lands half of
// Wg in the increment buffer and fails; none of those bytes may be pushed.
func TestExchangePushesEachIncrementOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const alpha = 0.25
	for _, e := range exchangeEngines {
		for _, failT1 := range []bool{false, true} {
			name, steps := e.name+"/back-to-back", 2
			if failT1 {
				name, steps = e.name+"/failing-T1", 3
			}
			t.Run(name, func(t *testing.T) {
				client := &pushLogClient{Client: smb.NewLocalClient(smb.NewStore())}
				ex, weights := e.build(t, client, alpha)
				client.wgBytes = 4 * len(weights)
				if failT1 {
					client.failWgReadAt = 1 + steps // start reads Wg once
				}
				if err := ex.start(weights); err != nil {
					t.Fatal(err)
				}
				wg := append([]float32(nil), weights...) // the seed
				for i := range weights {
					weights[i] = float32(3 * (i % 5)) // T4+T5 moved the replica
				}
				w := append([]float32(nil), weights...)

				var want [][]float32
				var runErr error
				for k := 1; k <= steps; k++ {
					if _, _, runErr = ex.step(weights); runErr != nil {
						break
					}
					d := make([]float32, len(w))
					for i := range w {
						d[i] = alpha * (w[i] - wg[i])
						w[i] -= d[i]
						wg[i] += d[i]
					}
					want = append(want, d)
				}
				ex.shutdown(runErr)
				if failT1 && !errors.Is(runErr, errInjectedRead) || !failT1 && runErr != nil {
					t.Fatalf("steps ended with %v (failing T1: %v)", runErr, failT1)
				}

				if len(client.pushes) != len(want) {
					t.Fatalf("%d pushes landed, want %d (one per completed step)", len(client.pushes), len(want))
				}
				for k := range want {
					if i := sameBits(client.pushes[k], want[k]); i >= 0 {
						t.Fatalf("push %d [%d] = %v, want step %d's increment %v",
							k+1, i, client.pushes[k][i], k+1, want[k][i])
					}
				}
				got := make([]float32, len(wg))
				if err := ex.buffers.ReadGlobal(got); err != nil {
					t.Fatal(err)
				}
				if i := sameBits(got, wg); i >= 0 {
					t.Fatalf("Wg[%d] = %v, want seed + Σ acknowledged pushes = %v", i, got[i], wg[i])
				}
				if i := sameBits(weights, w); i >= 0 {
					t.Fatalf("replica[%d] = %v, want %v", i, weights[i], w[i])
				}
			})
		}
	}
}

// TestFlagStopSeesTombstone: a worker stopped by a peer's flag has observed
// the same read's heartbeats first, so it knows every death that preceded
// the flag. No timing: rank 1's tombstone and rank 2's flag are both in the
// control segment before rank 0 runs its first check.
func TestFlagStopSeesTombstone(t *testing.T) {
	job := newTestJob(t, 3, 31)
	bufs := make([]*JobBuffers, 3)
	errs := make([]error, 3)
	var w *Worker
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := job.workerConfig(t, r, "job")
			if r == 0 {
				cfg.Termination = StopOnMaster
				cfg.LivenessTimeout = time.Minute
				w, errs[r] = job.newWorker(cfg, r)
				return
			}
			bufs[r], errs[r] = SetupBuffersPolling(cfg.Client, cfg.Job, r, 3, cfg.Net.NumParams(), nil, BootstrapOptions{})
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d bootstrap: %v", r, err)
		}
	}
	if err := bufs[1].MarkDead(); err != nil {
		t.Fatal(err)
	}
	if err := bufs[2].SignalStop(); err != nil {
		t.Fatal(err)
	}
	stats, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.StoppedBy != "flag" || stats.Iterations != 1 {
		t.Fatalf("stopped by %q after %d iterations, want the flag at the first check", stats.StoppedBy, stats.Iterations)
	}
	if !hasRank(stats.DeadPeers, 1) {
		t.Fatalf("dead peers = %v, want rank 1: its tombstone preceded the flag", stats.DeadPeers)
	}
}
