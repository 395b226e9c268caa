package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"
)

// Training workloads: a launched smbserver, trainWorld worker processes in a
// closed loop (each worker's next iteration starts when its previous one
// ends), a fixed measured window closed by the master's stop flag.

const trainJob = "bench"

// trainRun is one launch → warm-up → window → teardown episode.
type trainRun struct {
	episode // setupS: server launch → every worker past bootstrap, first Wg read and warm-up
	workers []workerResult

	winStart, winEnd int64      // UnixNano; all workers are inside their measured loop between the two
	iters            []opSample // iterations completed inside the window, all workers, by completion time

	valLoss    float64 // read-back Wg evaluated by the driver
	pushes     int
	traceFiles []string
}

// runTraining runs one episode; a measured one (seconds > 0) ends with the
// output checks that need the final Wg.
func (h *harness) runTraining(w workload, seed uint64, seconds float64) (*trainRun, error) {
	traced, check := h.rec != nil, seconds > 0
	cl, err := newCluster(h.root)
	if err != nil {
		return nil, err
	}
	defer cl.close()

	launch := time.Now()
	srv, err := cl.startSMBServer(h.binDir, w.Transport == "shm")
	if err != nil {
		return nil, err
	}
	run := &trainRun{}
	if run.before, err = fetchMetrics(srv.metrics); err != nil {
		return nil, err
	}
	procs := make([]*proc, trainWorld)
	for rank := range procs {
		cfg := workerChildConfig{
			Rank: rank, World: trainWorld, Addr: srv.addr, Transport: w.Transport, Job: trainJob,
			Model: w.Model, Seed: seed, Warmup: w.Warmup, Seconds: seconds,
		}
		if traced {
			cfg.TraceOut = filepath.Join(h.traceDir, fmt.Sprintf("%s.worker%d.json", w.Name, rank))
			run.traceFiles = append(run.traceFiles, cfg.TraceOut)
		}
		raw, err := json.Marshal(cfg)
		if err != nil {
			return nil, err
		}
		if procs[rank], err = cl.start(fmt.Sprintf("worker%d", rank), h.self, "-child", string(raw)); err != nil {
			return nil, err
		}
	}
	if err := waitAll(procs, time.Duration(seconds*float64(time.Second))+90*time.Second); err != nil {
		return nil, err
	}
	for _, p := range procs {
		line, ok := p.lastLineWithPrefix(workerResultPrefix)
		if !ok {
			return nil, fmt.Errorf("%s printed no result:\n%s", p.name, p.output())
		}
		var res workerResult
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return nil, fmt.Errorf("%s result: %w", p.name, err)
		}
		run.workers = append(run.workers, res)
	}
	if run.after, err = fetchMetrics(srv.metrics); err != nil {
		return nil, err
	}
	if check {
		done := h.rec.span("smb", "read_back_wg")
		run.valLoss, err = evaluateGlobal(srv.addr, w, seed)
		done()
		if err != nil {
			return nil, err
		}
	}
	if run.rssMB, err = srv.proc.stopWithRSS(); err != nil {
		return nil, err
	}
	for _, res := range run.workers {
		run.rssMB += res.PeakRSSMB
	}
	run.window(w, launch)
	run.verify(w, traced, check)
	return run, nil
}

// waitAll waits for every process to exit cleanly; the first failure (or
// the timeout) returns at once so the caller's teardown kills the rest
// instead of leaving them parked in a rendezvous.
func waitAll(procs []*proc, timeout time.Duration) error {
	deadline := time.After(timeout)
	for _, p := range procs {
		select {
		case <-p.done:
		case <-deadline:
			return fmt.Errorf("%s still running after %s:\n%s", p.name, timeout, p.output())
		}
		if p.err != nil {
			return fmt.Errorf("%s: %w:\n%s", p.name, p.err, p.output())
		}
		// A worker that died takes its peers' rendezvous with it; check the
		// others now rather than after this one's timeout.
		for _, q := range procs {
			select {
			case <-q.done:
				if q.err != nil {
					return fmt.Errorf("%s: %w:\n%s", q.name, q.err, q.output())
				}
			default:
			}
		}
	}
	return nil
}

// window derives the measured window and the throughput and latency inside
// it from the workers' per-iteration stamps: it opens when the last worker
// finishes warm-up and closes when the first worker stops, so every
// iteration counted ran beside all its peers.
func (r *trainRun) window(w workload, launch time.Time) {
	r.winStart, r.winEnd = 0, math.MaxInt64
	for _, res := range r.workers {
		r.pushes += res.Pushes
		r.attempted += res.Iterations + res.Pushes
		if len(res.Stamps) < w.Warmup {
			r.fail("worker %d ran %d iterations, fewer than the %d of warm-up", res.Rank, len(res.Stamps), w.Warmup)
			return
		}
		r.winStart = max(r.winStart, res.Stamps[w.Warmup-1])
		r.winEnd = min(r.winEnd, res.Stamps[len(res.Stamps)-1])
	}
	r.setupS = float64(r.winStart-launch.UnixNano()) / 1e9
	for _, res := range r.workers {
		for i := 1; i < len(res.Stamps); i++ {
			if res.Stamps[i-1] >= r.winStart && res.Stamps[i] <= r.winEnd {
				r.iters = append(r.iters, opSample{at: res.Stamps[i], ms: float64(res.Stamps[i]-res.Stamps[i-1]) / 1e6})
			}
		}
	}
	sort.Slice(r.iters, func(i, j int) bool { return r.iters[i].at < r.iters[j].at })
	r.opsPerS = chunkedRate(r.iters, r.winStart)
}

// verify runs the output checks; every miss is recorded and fails the run.
func (r *trainRun) verify(w workload, traced, check bool) {
	fail := r.fail
	for _, res := range r.workers {
		if want := (res.Iterations + updateInterval - 1) / updateInterval; res.Pushes != want {
			fail("worker %d: %d pushes for %d iterations at update_interval %d, want %d", res.Rank, res.Pushes, res.Iterations, updateInterval, want)
		}
		if res.StoppedBy != "flag" {
			fail("worker %d stopped by %q, want the master's stop flag", res.Rank, res.StoppedBy)
		}
		if traced && res.TraceDropped != 0 {
			fail("worker %d dropped %d spans", res.Rank, res.TraceDropped)
		}
	}
	// Exactly-once: every push the workers count was folded into Wg once.
	// Mapped (shm) clients bump their own counter on the segment's control
	// page, so the two series together are the server's view.
	acc := scrapeDelta(r.before, r.after, serAccumulates, nil) +
		scrapeDelta(r.before, r.after, serShmOps, map[string]string{"op": "accumulate"})
	if int(acc) != r.pushes {
		fail("server accumulated %d increments, workers pushed %d", int(acc), r.pushes)
	}
	if d := scrapeDelta(r.before, r.after, serDupAcks, nil); d != 0 {
		fail("%d duplicate acks: a push was retried", int(d))
	}
	if check && !(r.valLoss < w.Model.LossLimit) { // NaN fails too
		fail("final_val_loss %v of the read-back Wg is not below %v", r.valLoss, w.Model.LossLimit)
	}
}

// evaluateGlobal reads Wg back from the server over the workload's
// transport and scores it on the seed's validation split.
func evaluateGlobal(addr string, w workload, seed uint64) (float64, error) {
	net, err := buildNet(w.Model, "eval")
	if err != nil {
		return 0, err
	}
	c, err := dialTransport(w.Transport, dialOptions{Addr: addr, OpTimeout: smbOpTimeout, ClientID: 1000, Seed: 1000})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	global, err := readSegmentFloats(c, segmentNames{Job: trainJob}.Global(), net.NumParams())
	if err != nil {
		return 0, err
	}
	return validationLoss(net, global, w.Model, seed)
}

func readSegmentFloats(c smbClient, name string, elems int) ([]float32, error) {
	key, err := c.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("lookup %s: %w", name, err)
	}
	h, err := c.Attach(key)
	if err != nil {
		return nil, fmt.Errorf("attach %s: %w", name, err)
	}
	buf := make([]byte, elems*4)
	if err := c.Read(h, 0, buf); err != nil {
		return nil, fmt.Errorf("read %s: %w", name, err)
	}
	out := make([]float32, elems)
	return out, decodeFloat32(buf, out)
}

func validationLoss(net *network, weights []float32, m modelSpec, seed uint64) (float64, error) {
	if err := net.SetFlatWeights(weights); err != nil {
		return 0, err
	}
	_, val, err := buildData(m, seed)
	if err != nil {
		return 0, err
	}
	ld, err := newLoader(val, val.Len(), seed)
	if err != nil {
		return 0, err
	}
	b := ld.Next()
	loss, _, err := net.Evaluate(b.X, b.Labels, 1)
	return loss, err
}

// layerMetrics sums, per worker trace file, the Fig. 6 span durations that
// fall inside the window, and returns the traced run's core.* metrics; the
// reconciliation adds up to the mean iteration time.
func (r *trainRun) layerMetrics() (map[string]float64, float64, []string, error) {
	var t1, t2, t45, ta5, hidden, pushes float64 // ms, pooled over workers
	for _, f := range r.traceFiles {
		evs, err := loadTraceFile(f)
		if err != nil {
			return nil, 0, nil, err
		}
		epoch := traceEpochUnixNs(evs)
		for _, ev := range evs {
			if ev.Ph != "X" {
				continue
			}
			start := epoch + int64(ev.TS*1e3)
			if start < r.winStart || start+int64(ev.Dur*1e3) > r.winEnd {
				continue
			}
			p, ok := phaseFromName(ev.Name)
			if !ok {
				continue
			}
			ms := ev.Dur / 1e3
			switch {
			case p == phaseT1:
				t1 += ms
			case p == phaseT2:
				t2 += ms
			case p == phaseT45:
				t45 += ms
			case p == phaseTA5:
				ta5 += ms
			case p >= phaseTA1 && p <= phaseTA4:
				hidden += ms
				if p == phaseTA4 {
					pushes++
				}
			}
		}
	}
	n := float64(len(r.iters))
	if n == 0 || pushes == 0 || t45 == 0 {
		return nil, 0, nil, fmt.Errorf("traced window holds %d iterations, %d pushes: nothing to attribute", len(r.iters), int(pushes))
	}
	iterMs := mean(durations(r.iters))
	var stale float64
	for _, res := range r.workers {
		stale += res.StalenessMean / float64(len(r.workers))
	}
	return map[string]float64{
		"core.t1_ms":              t1 / n,
		"core.t2_ms":              t2 / n,
		"core.t45_ms":             t45 / n,
		"core.ta5_ms":             ta5 / n,
		"core.push_hidden_ms":     hidden / pushes,
		"core.overlap_ratio":      hidden / t45,
		"core.t1_staleness_iters": stale,
		// What no main-thread span covers: the control-segment round trips
		// (progress report, stop flag, progress read), the hook and the yield.
		"core.unexplained_share": 1 - (t1+t2+t45+ta5)/n/iterMs,
		// T1 is the Wg read; T.A5 is the main thread waiting out a push.
		"core.smb_share":   (t1 + ta5) / n / iterMs,
		"core.iter_ms_p95": chunkedQuantile(r.iters, 0.95),
	}, iterMs, r.traceFiles, nil
}
