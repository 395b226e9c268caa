package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// serve_storm_tcp: an open loop. One HTTP connection sends /infer on a fixed
// schedule at three fixed rates through a default-flag shmserve; beside it
// one SMB connection pushes whole-model increments into the served Wg at a
// fixed low rate, so every snapshot refresh cuts through write traffic that
// pays copy-on-write preservation. Latency is timed from the instant a
// request was due, so a stall charges every request queued behind it; how
// late the generator itself ran is reported beside it. A last quarter of the
// window runs the same connection closed-loop to measure its saturation
// rate.

type servePhase struct {
	rate     float64
	sent     int
	served   []opSample // successful requests: completion time, reply − due
	lateMs   []float64  // send − due: the generator's (and the connection's backlog's) lateness
	serverMs float64    // shmserve's own mean latency over the phase
}

// meetsSLO applies the frozen limit: p95 within sloP95Ms, at least
// sloOKShare of the requests answered correctly (a failed or refused
// request misses), and no backlog growing through the phase.
func (p *servePhase) meetsSLO() bool {
	if p.sent == 0 || float64(len(p.served)) < sloOKShare*float64(p.sent) {
		return false
	}
	tail := p.lateMs[len(p.lateMs)*3/4:]
	return quantile(durations(p.served), 0.95) <= sloP95Ms && mean(tail) <= sloP95Ms
}

type serveRun struct {
	episode // setupS: server launch → Wg seeded, shmserve serving, warm-up answered; opsPerS: closed-loop requests/s
	phases  [3]servePhase
	pushMs  []float64
	pushes  int
	maxAgeS float64 // largest snapshot age seen at a phase boundary

	serveBefore, serveAfter scrape // shmserve /metrics around the window
}

// inferClient is the single HTTP connection of the workload.
type inferClient struct {
	http    *http.Client
	url     string
	classes int
	bodies  [][]byte // seeded request bodies, cycled
	next    int
	version uint64 // highest model_version seen; replies must never go back
	rec     *spanRecorder
}

func newInferClient(base string, m modelSpec, seed uint64, rec *spanRecorder) (*inferClient, error) {
	c := &inferClient{
		http: &http.Client{
			Timeout:   5 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		},
		url: base + pathInfer, classes: m.Classes, rec: rec,
	}
	rng := newRNG(seed ^ 0x5eed)
	for i := 0; i < 64; i++ {
		x := make([]float32, m.Features)
		for j := range x {
			x[j] = float32(rng.NormFloat64())
		}
		body, err := json.Marshal(inferRequest{Features: x})
		if err != nil {
			return nil, err
		}
		c.bodies = append(c.bodies, body)
	}
	return c, nil
}

// infer sends one request and checks the reply: classes finite scores and a
// model_version that never decreases.
func (c *inferClient) infer(body []byte) (*inferReply, error) {
	done := c.rec.span("shmserve", "infer")
	defer done()
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	var rep inferReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, err
	}
	if len(rep.Scores) != c.classes {
		return nil, fmt.Errorf("%d scores, want %d", len(rep.Scores), c.classes)
	}
	for _, s := range rep.Scores {
		if math.IsNaN(float64(s)) || math.IsInf(float64(s), 0) {
			return nil, fmt.Errorf("non-finite score %v", s)
		}
	}
	if rep.ModelVersion < c.version {
		return nil, fmt.Errorf("model_version went back from %d to %d", c.version, rep.ModelVersion)
	}
	c.version = rep.ModelVersion
	return &rep, nil
}

func (c *inferClient) nextBody() []byte {
	b := c.bodies[c.next%len(c.bodies)]
	c.next++
	return b
}

func (c *inferClient) close() { c.http.CloseIdleConnections() }

// openLoop sends rate requests per second for d, each timed from its due
// time.
func (c *inferClient) openLoop(run *serveRun, p *servePhase, rate float64, d time.Duration) {
	p.rate = rate
	n := int(rate * d.Seconds())
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		p.lateMs = append(p.lateMs, float64(time.Since(due).Nanoseconds())/1e6)
		p.sent++
		if _, err := c.infer(c.nextBody()); err != nil {
			run.fail("infer at %g/s: %v", rate, err)
			continue
		}
		now := time.Now()
		p.served = append(p.served, opSample{at: now.UnixNano(), ms: float64(now.Sub(due).Nanoseconds()) / 1e6})
	}
}

// writer pushes whole-model increments at rate per second until stop is
// closed, through the same JobBuffers.PushIncrement a worker's update thread
// calls. The gaps are seeded and uneven (0.5 to 1.5 mean gaps): a strictly
// periodic writer beats against the periodic request schedule (160 req/s is
// exactly 8 requests per push at 20 pushes/s), so each run would measure
// whichever phase it happened to start in.
func (r *serveRun) writer(bufs *jobBuffers, delta []float32, rate float64, seed uint64, rec *spanRecorder, stop <-chan struct{}) {
	rng := newRNG(seed ^ 0x3a17e5)
	due := time.Now()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		due = due.Add(time.Duration((0.5 + rng.Float64()) / rate * float64(time.Second)))
		done := rec.span("smb", "writer_push")
		t0 := time.Now()
		err := bufs.PushIncrement(delta)
		d := time.Since(t0)
		done()
		r.pushes++
		if err != nil {
			r.fail("writer push %d: %v", i, err)
			continue
		}
		r.pushMs = append(r.pushMs, float64(d.Nanoseconds())/1e6)
	}
}

func (h *harness) runServe(w workload, seed uint64, seconds float64) (*serveRun, error) {
	cl, err := newCluster(h.root)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	m := w.Model
	run := &serveRun{}

	launch := time.Now()
	srv, err := cl.startSMBServer(h.binDir, false)
	if err != nil {
		return nil, err
	}
	// The driver is the "trainer": rank 0 of a one-worker job. It creates
	// and seeds Wg exactly as a master worker's bootstrap does.
	net, err := buildNet(m, "driver")
	if err != nil {
		return nil, err
	}
	net.InitWeights(newRNG(seed))
	elems := net.NumParams()
	wc, err := dialTransport(w.Transport, dialOptions{Addr: srv.addr, OpTimeout: smbOpTimeout, ClientID: 1, Seed: 1})
	if err != nil {
		return nil, err
	}
	defer wc.Close()
	bufs, err := setupBuffersPolling(wc, trainJob, 0, 1, elems, net.FlatWeights(nil), bootstrapOptions{})
	if err != nil {
		return nil, err
	}
	front, err := cl.start("shmserve", filepath.Join(h.binDir, "shmserve"),
		flagServeAddr, srv.addr, flagServeTransport, w.Transport, flagServeJob, trainJob,
		flagServeFeatures, strconv.Itoa(m.Features), flagServeHidden, strconv.Itoa(m.Hidden),
		flagServeClasses, strconv.Itoa(m.Classes), flagServeListen, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpAddr, err := front.waitLine(reServeHTTP, 15*time.Second)
	if err != nil {
		return nil, err
	}
	base := "http://" + httpAddr
	ic, err := newInferClient(base, m, seed, h.rec)
	if err != nil {
		return nil, err
	}
	defer ic.close()

	// The writer's increment: seeded, small against the weights, the same
	// buffer every push (its content does not change the work done).
	delta := make([]float32, elems)
	rng := newRNG(seed ^ 0xde17a)
	for i := range delta {
		delta[i] = float32(1e-4 * rng.NormFloat64())
	}
	for i := 0; i < w.Warmup; i++ {
		if _, err := ic.infer(ic.nextBody()); err != nil {
			return nil, fmt.Errorf("warm-up infer: %w", err)
		}
	}
	if err := bufs.PushIncrement(delta); err != nil {
		return nil, fmt.Errorf("warm-up push: %w", err)
	}
	run.setupS = time.Since(launch).Seconds()
	if seconds == 0 {
		return run, cl.close()
	}

	if run.before, err = fetchMetrics(srv.metrics); err != nil {
		return nil, err
	}
	if run.serveBefore, err = fetchMetrics(base + pathMetrics); err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		run.writer(bufs, delta, serveWriterRate, seed, h.rec, stop)
	}()
	stopWriter := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopWriter()

	share := func(i int) time.Duration {
		return time.Duration(servePhaseShare[i] * seconds * float64(time.Second))
	}
	prev := run.serveBefore
	for i := range run.phases {
		p := &run.phases[i]
		ic.openLoop(run, p, serveRates[i], share(i))
		cur, err := fetchMetrics(base + pathMetrics)
		if err != nil {
			return nil, err
		}
		if n := scrapeDelta(prev, cur, serServeInfer+"_count", nil); n > 0 {
			p.serverMs = scrapeDelta(prev, cur, serServeInfer+"_sum", nil) / n * 1e3
		}
		run.maxAgeS = max(run.maxAgeS, cur.value(serServeAge, nil))
		prev = cur
		run.attempted += p.sent
	}
	var closed []opSample
	satStart := time.Now()
	satEnd := satStart.Add(share(3))
	for time.Now().Before(satEnd) {
		run.attempted++
		t0 := time.Now()
		if _, err := ic.infer(ic.nextBody()); err != nil {
			run.fail("closed-loop infer: %v", err)
			continue
		}
		now := time.Now()
		closed = append(closed, opSample{at: now.UnixNano(), ms: float64(now.Sub(t0).Nanoseconds()) / 1e6})
	}
	run.opsPerS = chunkedRate(closed, satStart.UnixNano())
	stopWriter()
	run.attempted += run.pushes

	// With the writer quiet, the frontend must converge on exactly the Wg
	// the server holds: its reply equals the driver's own forward pass on
	// the weights read back.
	if err := run.checkFinalReply(ic, bufs, net, m); err != nil {
		return nil, err
	}
	if run.serveAfter, err = fetchMetrics(base + pathMetrics); err != nil {
		return nil, err
	}
	if run.after, err = fetchMetrics(srv.metrics); err != nil {
		return nil, err
	}
	// Every push is folded in exactly once (warm-up push precedes the
	// first scrape), nothing was retried, and no snapshot read ever fell
	// back to blocking on a stripe lock — shmserve's consistency SLO.
	if acc := scrapeDelta(run.before, run.after, serAccumulates, nil); int(acc) != run.pushes {
		run.fail("server accumulated %d increments, writer pushed %d", int(acc), run.pushes)
	}
	if d := scrapeDelta(run.before, run.after, serDupAcks, nil); d != 0 {
		run.fail("%d duplicate acks: a push was retried", int(d))
	}
	if d := scrapeDelta(run.before, run.after, serSnapExhaust, nil); d != 0 {
		run.fail("%d snapshot reads exhausted their lock-free retries", int(d))
	}
	if d := scrapeDelta(run.serveBefore, run.serveAfter, serServeRefreshErr, nil); d != 0 {
		run.fail("%d snapshot refreshes failed", int(d))
	}
	wc.Close()
	frontMB, err := front.stopWithRSS()
	if err != nil {
		return nil, err
	}
	srvMB, err := srv.proc.stopWithRSS()
	if err != nil {
		return nil, err
	}
	run.rssMB = frontMB + srvMB
	return run, cl.close()
}

// checkFinalReply waits out the refresh interval, then compares one reply
// with the driver's own forward pass on the final Wg.
func (r *serveRun) checkFinalReply(ic *inferClient, bufs *jobBuffers, net *network, m modelSpec) error {
	final := make([]float32, net.NumParams())
	if err := bufs.ReadGlobal(final); err != nil {
		return err
	}
	if err := net.SetFlatWeights(final); err != nil {
		return err
	}
	var req inferRequest
	body := ic.bodies[0]
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	x, err := tensorFromSlice(req.Features, 1, m.Features)
	if err != nil {
		return err
	}
	logits, err := net.Forward(x, false)
	if err != nil {
		return err
	}
	want := logits.Data()
	time.Sleep(time.Duration(serveSettleDelay * float64(time.Second)))
	deadline := time.Now().Add(5 * time.Second)
	for ; ; time.Sleep(100 * time.Millisecond) {
		r.attempted++
		rep, err := ic.infer(body)
		if err != nil {
			r.fail("final infer: %v", err)
			return nil
		}
		worst := 0.0
		for i, s := range rep.Scores {
			worst = max(worst, math.Abs(float64(s-want[i]))/(1+math.Abs(float64(want[i]))))
		}
		if worst <= 1e-5 {
			return nil
		}
		if time.Now().After(deadline) {
			r.fail("final reply differs from the driver's forward pass on the final Wg by %.3g (relative), 5 s after the writer stopped", worst)
			return nil
		}
	}
}

// layerMetrics are the serve.* per-layer metrics of a run; the
// reconciliation adds up to R2's median latency.
func (r *serveRun) layerMetrics() (map[string]float64, float64, []string, error) {
	d := func(name string) float64 { return scrapeDelta(r.serveBefore, r.serveAfter, name, nil) }
	out := map[string]float64{
		"serve.refreshes":        d(serServeRefreshes),
		"serve.refresh_failures": d(serServeRefreshErr),
		"serve.snapshot_age_s":   r.maxAgeS,
		"serve.push_ms_p50":      median(r.pushMs),
	}
	if n := d(serServeInfer + "_count"); n > 0 {
		out["serve.server_ms_mean"] = d(serServeInfer+"_sum") / n * 1e3
	}
	if n := d(serServeBatch + "_count"); n > 0 {
		out["serve.batch_mean"] = d(serServeBatch+"_sum") / n
	}
	r2 := &r.phases[1]
	totalMs := median(durations(r2.served))
	out["serve.http_overhead_ms"] = totalMs - r2.serverMs
	out["serve.server_ms_r2"] = r2.serverMs // for the reconciliation; not a catalogue metric
	e2e := r.endToEnd()
	out["serve.infer_ms_p95"] = e2e["op_ms_p95"]
	out["serve.gen_lateness_ms_p95"] = e2e["gen_lateness_ms_p95"]
	out["serve.rate_at_slo"] = e2e["rate_at_slo"]
	return out, totalMs, nil, nil
}
