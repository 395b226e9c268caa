package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// The traced run (--trace 1). The window is split in two: the first half
// runs with tracing off, the second with the workers' Fig. 6 tracer switched
// on through WorkerConfig.Telemetry and the driver recording a span around
// every call it makes into a layer. The ratio of the halves' throughput is
// the tracing overhead; the traced half and the unloaded probes that follow
// give the per-layer metrics and the reconciliation table.

func (h *harness) measureTraced(w workload, seed uint64, seconds float64, res *result) (map[string]float64, error) {
	h.rec = nil
	a, err := h.runOnce(w, seed, seconds/2)
	if err != nil {
		return nil, err
	}
	res.Problems = append(res.Problems, a.common().problems...)

	h.rec = newSpanRecorder(w.Name)
	defer func() { h.rec = nil }()
	b, err := h.runOnce(w, seed, seconds/2)
	if err != nil {
		return nil, err
	}
	traced := b.common()
	res.Problems = append(res.Problems, traced.problems...)
	res.Attempted = traced.attempted
	values, totalMs, workerTraces, err := b.layerMetrics()
	if err != nil {
		return nil, err
	}
	if untraced := a.common().opsPerS; untraced > 0 {
		values["telemetry.trace_overhead"] = 1 - traced.opsPerS/untraced
	}
	res.Absent = h.smbDeltas(values, traced.before, traced.after)

	probes, err := h.runProbes(w, seed)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		values[k] = v
	}
	if !w.Serve {
		// On a CPU host the "hidden" push competes with compute for the
		// same cores: loaded T4+T5 over the same work unloaded.
		values["core.contention_factor"] = values["core.t45_ms"] / (values["nn.step_ms"] + values["dataset.next_ms"])
	}
	res.Recon = reconcile(w, values, totalMs)
	if res.TraceFile, err = h.rec.write(h.traceDir, workerTraces); err != nil {
		return nil, err
	}
	return values, nil
}

// smbDeltas fills the smb.* count/busy/waited metrics from the server's
// scrape deltas over the traced episode, records them as counter events, and
// returns the series the server did not export.
func (h *harness) smbDeltas(values map[string]float64, before, after scrape) (absent []string) {
	shm := func(op string) float64 {
		return scrapeDelta(before, after, serShmOps, map[string]string{"op": op})
	}
	d := func(name string) float64 {
		if !after.has(name) {
			absent = append(absent, name)
		}
		return scrapeDelta(before, after, name, nil)
	}
	values["smb.reads"] = d(serReads) + shm("read")
	values["smb.accumulates"] = d(serAccumulates) + shm("accumulate")
	values["smb.bytes_read"] = d(serBytesRead)
	values["smb.bytes_written"] = d(serBytesWritten) + d(serShmBytesAcc)
	values["smb.dispatch_ms"] = d(serDispatch+"_sum") * 1e3
	values["smb.stripe_wait_ms"] = d(serStripeWait+"_sum") * 1e3
	values["smb.dup_acks"] = d(serDupAcks)
	values["smb.conn_errors"] = d(serConnErrors)
	values["smb.snap_cow_pages"] = d(serSnapCowPages)
	for k, v := range values {
		if strings.HasPrefix(k, "smb.") {
			h.rec.counter("smb", k, v)
		}
	}
	return absent
}

// reconRow is one line of the reconciliation table: a layer's share of the
// end-to-end time, measured loaded, beside the same work probed unloaded.
type reconRow struct {
	Layer      string  `json:"layer"`
	Row        string  `json:"row"`
	Ms         float64 `json:"ms"`
	Share      float64 `json:"share"`
	UnloadedMs float64 `json:"unloaded_ms,omitempty"`
}

// reconcile attributes totalMs — the traced half's mean iteration time, or
// R2's median request latency — to layers. The last rows are the remainder
// no span explains and the total itself.
func reconcile(w workload, v map[string]float64, totalMs float64) []reconRow {
	var rows []reconRow
	add := func(layer, row string, ms, unloaded float64) {
		rows = append(rows, reconRow{Layer: layer, Row: row, Ms: ms, Share: ms / totalMs, UnloadedMs: unloaded})
	}
	if w.Serve {
		forward := v["nn.forward_ms"]
		server := v["serve.server_ms_r2"]
		add("shmserve", "batch-delay floor (default -batch-delay, one request in flight)", shmserveBatchDelayMs, 0)
		add("nn", "forward pass, batch 1", forward, forward)
		add("shmserve", "rest of the server's own latency (queue hand-off, JSON, timer slack)", server-shmserveBatchDelayMs-forward, 0)
		add("http", "client p50 − server mean (HTTP, loopback, generator)", totalMs-server, 0)
	} else {
		explained := v["core.t1_ms"] + v["core.ta5_ms"] + v["core.t2_ms"] + v["core.t45_ms"]
		add("smb", "T1 Wg read over "+w.Transport, v["core.t1_ms"], v["smb.read_ms."+w.Transport])
		add("smb", "T.A5 main thread waiting out a push", v["core.ta5_ms"], 0)
		add("tensor+nn", "T2 fused elastic step + weight copy", v["core.t2_ms"], v["tensor.elastic_step_ms"])
		add("nn+tensor+dataset", "T4+T5 minibatch step", v["core.t45_ms"], v["nn.step_ms"]+v["dataset.next_ms"])
		add("core", "unexplained: control-segment round trips, hook, yield", totalMs-explained, 0)
	}
	add("total", "end-to-end", totalMs, 0)
	return rows
}

func printReconciliation(out io.Writer, res *result) {
	fmt.Fprintf(out, "reconciliation %s (ms per op; unloaded = same work probed alone)\n", res.Workload)
	for _, r := range res.Recon {
		unloaded := ""
		if r.UnloadedMs > 0 {
			unloaded = fmt.Sprintf("unloaded %.3f", r.UnloadedMs)
		}
		fmt.Fprintf(out, "  %-18s %8.3f  %5.1f%%  %-16s %s\n", r.Layer, r.Ms, 100*r.Share, unloaded, r.Row)
	}
	fmt.Fprintf(out, "  trace_overhead %.1f%%   trace file %s\n",
		100*res.Metrics["telemetry.trace_overhead"].Value, res.TraceFile)
}

// hostInfo is the fingerprint recorded with every output: numbers from
// different host shapes are not comparable.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"` // left at its default
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	SIMD       string `json:"simd_backend"`
	BuildTags  string `json:"build_tags"`
	Shm        bool   `json:"shm_transport"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		SIMD: simdBackend(), Shm: shmSupported(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-tags" {
				h.BuildTags = s.Value
			}
		}
	}
	return h
}
