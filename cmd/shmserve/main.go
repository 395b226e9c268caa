// Command shmserve is the batching inference frontend: it serves forward
// passes of an internal/nn model whose weights live in a trainer's SMB Wg
// segment, refreshed through consistent copy-on-write snapshots
// (Snapshot/SnapRead) instead of the live Read that tears under a write
// storm. Point it at the same server and -job as a running
// `shmtrain multiprocess` fleet and it serves the model the trainer is
// converging, continuously.
//
//	shmserve -addr 127.0.0.1:7700 -job mpjob -listen 127.0.0.1:8080
//	curl -d '{"features":[0.1,...]}' http://127.0.0.1:8080/infer
//
// Requests to /infer are batched (up to -batch, waiting at most
// -batch-delay) into one batch-first Forward call. /metrics exposes the
// Prometheus surface: snapshot age, batch-size and end-to-end latency
// histograms, refresh counters. A built-in load generator
// (-loadgen http://host:port) drives a running frontend and prints the
// client-side p50/p99.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"shmcaffe/internal/nn"
	"shmcaffe/internal/smb"
	"shmcaffe/internal/telemetry"
	"shmcaffe/internal/tensor"
)

// promContentType is the Prometheus text exposition format version the
// registry writes (same constant as cmd/smbserver).
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "shmserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("shmserve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7700", "SMB server address the trainer writes Wg to")
		transport  = fs.String("transport", "auto", "SMB transport: auto, tcp, tcp_sg or shm")
		job        = fs.String("job", "mpjob", "job name whose global weight segment to serve")
		features   = fs.Int("features", 8, "model input features (must match the trainer)")
		hidden     = fs.Int("hidden", 16, "model hidden width (must match the trainer)")
		classes    = fs.Int("classes", 4, "model classes (must match the trainer)")
		listen     = fs.String("listen", "127.0.0.1:8080", "HTTP listen address (port 0 picks one)")
		refresh    = fs.Duration("refresh", 200*time.Millisecond, "snapshot refresh interval")
		batch      = fs.Int("batch", 16, "max requests folded into one forward pass")
		batchDelay = fs.Duration("batch-delay", 2*time.Millisecond, "max wait to fill a batch")
		wait       = fs.Duration("wait", 30*time.Second, "how long to wait for the trainer to create the segment")
		opTimeout  = fs.Duration("op-timeout", 5*time.Second, "per-operation SMB timeout")
		loadgen    = fs.String("loadgen", "", "load-generator mode: target frontend base URL (e.g. http://127.0.0.1:8080)")
		conc       = fs.Int("concurrency", 4, "with -loadgen: concurrent client goroutines")
		duration   = fs.Duration("duration", 3*time.Second, "with -loadgen: how long to generate load")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *loadgen != "" {
		return runLoadgen(*loadgen, *features, *conc, *duration)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	client, closeClient, tname, err := dialSMB(*addr, *transport, *opTimeout)
	if err != nil {
		return err
	}
	defer closeClient()

	net, err := nn.MLP("serve", *features, *hidden, *classes)
	if err != nil {
		return err
	}
	segName := smb.SegmentNames{Job: *job}.Global()
	h, err := waitForSegment(ctx, client, segName, *wait)
	if err != nil {
		return err
	}
	log.Printf("shmserve: attached %s via %s (%d params)", segName, tname, net.NumParams())

	srv := &server{
		sc:       client,
		h:        h,
		net:      net,
		features: *features,
		classes:  *classes,
		nparams:  net.NumParams(),
		reqCh:    make(chan inferReq, 256),
	}
	srv.initMetrics()

	// First refresh runs synchronously: /infer never sees a weightless
	// model, and a mismatched -features/-hidden/-classes fails here with a
	// size error instead of serving garbage.
	if err := srv.refreshOnce(); err != nil {
		return fmt.Errorf("initial snapshot of %s: %w", segName, err)
	}
	go srv.refreshLoop(ctx, *refresh)
	go srv.batchLoop(ctx, *batch, *batchDelay)

	ln, err := net2Listen(*listen)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.mux()}
	go func() {
		<-ctx.Done()
		sdCtx, sdCancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer sdCancel()
		_ = hs.Shutdown(sdCtx)
	}()
	log.Printf("shmserve: listening on http://%s (job %q, transport %s)", ln.Addr(), *job, tname)
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// net2Listen is a seam so the listen call reads apart from the nn import
// shadowing the net package name in run.
func net2Listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// dialSMB connects to the SMB server over the named transport (the same
// negotiation the trainer uses, minus the experimental endpoints).
func dialSMB(addr, transport string, opTimeout time.Duration) (smb.Client, func(), string, error) {
	opts := smb.DialOptions{Addr: addr, OpTimeout: opTimeout, Seed: 104729, ClientID: 104729}
	probe := func(c smb.Client) error {
		if _, err := c.Lookup("\x00reachability-probe"); err != nil && !errors.Is(err, smb.ErrUnknownSegment) {
			c.Close()
			return err
		}
		return nil
	}
	switch transport {
	case "tcp", "tcp_sg", "shm":
		c, err := smb.DialTransport(transport, opts)
		if err != nil {
			return nil, nil, "", err
		}
		if err := probe(c); err != nil {
			return nil, nil, "", err
		}
		return c, func() { c.Close() }, transport, nil
	case "", "auto":
		c, name, err := smb.DialAuto(opts)
		if err != nil {
			return nil, nil, "", err
		}
		if err := probe(c); err != nil {
			return nil, nil, "", err
		}
		return c, func() { c.Close() }, name, nil
	default:
		return nil, nil, "", fmt.Errorf("unknown transport %q (want auto, tcp, tcp_sg or shm)", transport)
	}
}

// waitForSegment polls for the trainer's weight segment: the frontend is
// typically started alongside the trainer, before the first solver Create.
func waitForSegment(ctx context.Context, c smb.Client, name string, wait time.Duration) (smb.Handle, error) {
	deadline := time.Now().Add(wait)
	for {
		key, err := c.Lookup(name)
		if err == nil {
			return c.Attach(key)
		}
		if !errors.Is(err, smb.ErrUnknownSegment) {
			return 0, err
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("segment %q not created within %s (is the trainer running with the same -job?)", name, wait)
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// weightsCut is one published model state: the flat weights of a snapshot,
// its store version, and when the cut was taken (feeds the age gauge).
type weightsCut struct {
	flat    []float32
	version uint64
	taken   time.Time
}

type inferReq struct {
	x    []float32
	resp chan inferResp
}

type inferResp struct {
	class   int
	scores  []float32
	version uint64
	err     error
}

type server struct {
	sc       smb.Client
	h        smb.Handle
	net      *nn.Network
	features int
	classes  int
	nparams  int
	reqCh    chan inferReq

	latest atomic.Pointer[weightsCut]

	reg          *telemetry.Registry
	batchSize    *telemetry.Histogram
	inferLatency *telemetry.Histogram
	infers       *telemetry.Counter
	refreshes    *telemetry.Counter
	refreshFails *telemetry.Counter
}

func (s *server) initMetrics() {
	s.reg = telemetry.NewRegistry()
	s.reg.GaugeFunc("shmserve_snapshot_age_seconds",
		"age of the weight snapshot currently being served",
		func() float64 {
			w := s.latest.Load()
			if w == nil {
				return -1
			}
			return time.Since(w.taken).Seconds()
		})
	s.reg.GaugeFunc("shmserve_model_version",
		"store version of the weight snapshot currently being served",
		func() float64 {
			w := s.latest.Load()
			if w == nil {
				return 0
			}
			return float64(w.version)
		})
	s.batchSize = s.reg.Histogram("shmserve_batch_size",
		"requests folded into one forward pass", telemetry.LinearBuckets(1, 1, 32))
	s.inferLatency = s.reg.Histogram("shmserve_infer_seconds",
		"end-to-end /infer latency (enqueue, batch, forward, reply)", telemetry.DefLatencyBuckets)
	s.infers = s.reg.Counter("shmserve_infers_total", "inference requests served")
	s.refreshes = s.reg.Counter("shmserve_refreshes_total", "successful weight snapshot refreshes")
	s.refreshFails = s.reg.Counter("shmserve_refresh_failures_total", "failed weight snapshot refreshes")
}

// refreshOnce takes one consistent cut of the weight segment and publishes
// it. The snapshot is released immediately after the copy: the frontend
// pins the cut only for the SnapRead, not between refreshes, so the store
// retires the COW pages instead of accumulating one pinned set per cycle.
func (s *server) refreshOnce() error {
	info, err := s.sc.Snapshot(s.h)
	if err != nil {
		return err
	}
	want := s.nparams * 4
	if info.Size < want {
		_ = s.sc.SnapRelease(info.ID)
		return fmt.Errorf("segment holds %d bytes but the model needs %d (check -features/-hidden/-classes against the trainer)", info.Size, want)
	}
	buf := make([]byte, want)
	if err := s.sc.SnapRead(info.ID, 0, buf); err != nil {
		_ = s.sc.SnapRelease(info.ID)
		return err
	}
	if err := s.sc.SnapRelease(info.ID); err != nil {
		return err
	}
	flat := make([]float32, s.nparams)
	if err := tensor.DecodeFloat32(buf, flat); err != nil {
		return err
	}
	s.latest.Store(&weightsCut{flat: flat, version: info.Version, taken: time.Now()})
	s.refreshes.Inc()
	return nil
}

func (s *server) refreshLoop(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := s.refreshOnce(); err != nil {
				s.refreshFails.Inc()
				log.Printf("shmserve: refresh: %v", err)
			}
		}
	}
}

// batchLoop is the single consumer of reqCh: it folds up to maxBatch
// requests (waiting at most delay after the first) into one batch-first
// Forward. Running alone it also owns the Network — SetFlatWeights and
// Forward never race, so a refresh mid-batch is simply picked up by the
// next batch.
func (s *server) batchLoop(ctx context.Context, maxBatch int, delay time.Duration) {
	var applied uint64
	for {
		var first inferReq
		select {
		case <-ctx.Done():
			return
		case first = <-s.reqCh:
		}
		batch := append(make([]inferReq, 0, maxBatch), first)
		timer := time.NewTimer(delay)
	fill:
		for len(batch) < maxBatch {
			select {
			case r := <-s.reqCh:
				batch = append(batch, r)
			case <-timer.C:
				break fill
			case <-ctx.Done():
				timer.Stop()
				return
			}
		}
		timer.Stop()
		s.batchSize.Observe(float64(len(batch)))

		w := s.latest.Load()
		if w.version != applied {
			if err := s.net.SetFlatWeights(w.flat); err != nil {
				s.fail(batch, err)
				continue
			}
			applied = w.version
		}
		xs := make([]float32, 0, len(batch)*s.features)
		for _, r := range batch {
			xs = append(xs, r.x...)
		}
		x, err := tensor.FromSlice(xs, len(batch), s.features)
		if err != nil {
			s.fail(batch, err)
			continue
		}
		logits, err := s.net.Forward(x, false)
		if err != nil {
			s.fail(batch, err)
			continue
		}
		data := logits.Data()
		for i, r := range batch {
			row := data[i*s.classes : (i+1)*s.classes]
			best := 0
			for j, v := range row {
				if v > row[best] {
					best = j
				}
			}
			scores := make([]float32, s.classes)
			copy(scores, row)
			r.resp <- inferResp{class: best, scores: scores, version: w.version}
		}
		s.infers.Add(int64(len(batch)))
	}
}

func (s *server) fail(batch []inferReq, err error) {
	for _, r := range batch {
		r.resp <- inferResp{err: err}
	}
}

type inferRequestBody struct {
	Features []float32 `json:"features"`
}

type inferResponseBody struct {
	Class        int       `json:"class"`
	Scores       []float32 `json:"scores"`
	ModelVersion uint64    `json:"model_version"`
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/infer", s.handleInfer)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", promContentType)
		_ = s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		cut := s.latest.Load()
		fmt.Fprintf(w, "ok version=%d age=%.3fs\n", cut.version, time.Since(cut.taken).Seconds())
	})
	return mux
}

func (s *server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	t0 := time.Now()
	var body inferRequestBody
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&body); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(body.Features) != s.features {
		http.Error(w, fmt.Sprintf("want %d features, got %d", s.features, len(body.Features)), http.StatusBadRequest)
		return
	}
	req := inferReq{x: body.Features, resp: make(chan inferResp, 1)}
	select {
	case s.reqCh <- req:
	case <-r.Context().Done():
		return
	}
	var resp inferResp
	select {
	case resp = <-req.resp:
	case <-r.Context().Done():
		return
	}
	if resp.err != nil {
		http.Error(w, resp.err.Error(), http.StatusInternalServerError)
		return
	}
	s.inferLatency.ObserveSeconds(int64(time.Since(t0)))
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(inferResponseBody{
		Class:        resp.class,
		Scores:       resp.scores,
		ModelVersion: resp.version,
	})
}

// runLoadgen hammers a running frontend with random feature vectors and
// prints the client-observed latency distribution — the companion to the
// server-side benchtables -serve rows.
func runLoadgen(base string, features, conc int, duration time.Duration) error {
	type result struct {
		lat  []time.Duration
		errs int
	}
	stop := time.Now().Add(duration)
	results := make([]result, conc)
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(slot)*7919 + 1))
			cl := &http.Client{Timeout: 5 * time.Second}
			x := make([]float32, features)
			for time.Now().Before(stop) {
				for j := range x {
					x[j] = rng.Float32()*2 - 1
				}
				body, _ := json.Marshal(inferRequestBody{Features: x})
				t0 := time.Now()
				resp, err := cl.Post(base+"/infer", "application/json", bytes.NewReader(body))
				if err != nil {
					results[slot].errs++
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					results[slot].errs++
					continue
				}
				results[slot].lat = append(results[slot].lat, time.Since(t0))
			}
		}(i)
	}
	wg.Wait()
	var all []time.Duration
	errs := 0
	for _, r := range results {
		all = append(all, r.lat...)
		errs += r.errs
	}
	if len(all) == 0 {
		return fmt.Errorf("loadgen: no successful requests against %s (%d errors)", base, errs)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) time.Duration { return all[int(p/100*float64(len(all)-1))] }
	fmt.Printf("loadgen: %d requests, %d errors, %.0f req/s, p50 %s, p99 %s\n",
		len(all), errs, float64(len(all))/duration.Seconds(), pct(50), pct(99))
	return nil
}
