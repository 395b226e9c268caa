// Command benchmark is the repository's benchmark: it launches the real
// topology — the cmd/smbserver binary, worker child processes, the
// cmd/shmserve binary — drives the workloads of BENCHMARK.json, checks their
// outputs, and prints every metric by name with its unit.
//
//	bash benchmark/run.sh --workload train_wide_tcp --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object {correct, attempted,
// failed, metrics}: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. The fuller report (host fingerprint, diagnostics,
// reconciliation table) precedes it. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

func main() {
	var (
		child     = flag.String("child", "", "internal: run as a worker child with this JSON config")
		root      = flag.String("root", "..", "repository root (the directory holding cmd/ and internal/)")
		name      = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Float64("seconds", 20, "measured seconds per run (BENCHMARK.json run_seconds)")
		traceMode = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		traceDir  = flag.String("trace-dir", "", "where the traced run writes <workload>.trace.json (default <root>/.bench_build/trace)")
		toy       = flag.Bool("toy", false, "toy model sizes (smoke test)")
		selfcheck = flag.Int("selfcheck", 0, "run every workload on this many seeds, twice, and judge spread and drift against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if *child != "" {
		if err := runWorkerChild(*child); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark worker:", err)
			os.Exit(1)
		}
		return
	}
	code, err := run(*root, *name, *seed, *seconds, *traceMode == 1, *traceDir, *toy, *selfcheck)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// harness is what every run shares: where the repository and its built
// binaries are, and the traced run's span recorder (nil with tracing off).
type harness struct {
	root     string
	binDir   string
	self     string // this executable, re-executed as the worker child
	traceDir string
	buildS   float64
	rec      *spanRecorder

	setupReps   int           // set-ups per untraced run; setup_s is their median
	probeBudget time.Duration // how long each unloaded probe repeats its call
}

// newHarness builds the server binaries. toy shrinks the repetition counts
// along with the model sizes, for the smoke test.
func newHarness(root, traceDir string, toy bool) (*harness, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("%s is not the repository root: %w", root, err)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if traceDir == "" {
		traceDir = filepath.Join(buildDir(root), "trace")
	}
	if traceDir, err = filepath.Abs(traceDir); err != nil {
		return nil, err
	}
	// One launch on a shared host does not repeat; five and their median do.
	h := &harness{root: root, self: self, traceDir: traceDir, setupReps: 5, probeBudget: 300 * time.Millisecond}
	if toy {
		h.setupReps, h.probeBudget = 2, 5*time.Millisecond
	}
	if h.binDir, h.buildS, err = buildBinaries(root); err != nil {
		return nil, err
	}
	return h, nil
}

// result is one workload's outcome: the contract line plus the fuller
// report printed before it.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Host      hostInfo               `json:"host"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Diag      map[string]metricValue `json:"diagnostics,omitempty"`
	Recon     []reconRow             `json:"reconciliation,omitempty"`
	Absent    []string               `json:"absent_series,omitempty"`
	TraceFile string                 `json:"trace_file,omitempty"`
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(root, name string, seed uint64, seconds float64, traced bool, traceDir string, toy bool, selfcheck int) (int, error) {
	h, err := newHarness(root, traceDir, toy)
	if err != nil {
		return 0, err
	}
	if selfcheck > 0 {
		return h.selfcheck(selfcheck, seed, seconds, toy)
	}
	var todo []workload
	if name == "all" {
		todo = workloads(toy)
	} else {
		w, err := findWorkload(name, toy)
		if err != nil {
			return 0, err
		}
		todo = []workload{w}
	}
	code := 0
	for _, w := range todo {
		res, err := h.measure(w, seed, seconds, traced)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", w.Name, err)
		}
		full, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return 0, err
		}
		fmt.Println(string(full))
		if traced {
			printReconciliation(os.Stdout, res)
		}
		line, err := json.Marshal(contractLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			return 0, err
		}
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code, nil
}

// measure runs one workload once: untraced for the end-to-end metrics, or
// traced for the per-layer ones.
func (h *harness) measure(w workload, seed uint64, seconds float64, traced bool) (*result, error) {
	if w.Transport == "shm" && !shmSupported() {
		return nil, fmt.Errorf("this build has no shm transport (-tags noshm, or not linux): workload skipped")
	}
	res := &result{Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced, Host: fingerprint()}
	var values map[string]float64
	var err error
	switch {
	case traced:
		if err := os.MkdirAll(h.traceDir, 0o755); err != nil {
			return nil, err
		}
		values, err = h.measureTraced(w, seed, seconds, res)
		res.Metrics = pick(perLayer, values, true)
	default:
		values, err = h.measureEndToEnd(w, seed, seconds, res)
	}
	if err != nil {
		return nil, err
	}
	if !traced {
		res.Metrics = pick(endToEnd, values, true)
		res.Diag = pick(diagnostics, values, false)
	}
	res.Failed = len(res.Problems)
	res.Attempted = max(res.Attempted, 1)
	res.Correct = res.Failed == 0
	return res, nil
}

// episode is what one launch → warm-up → window → teardown run leaves
// behind, whichever kind of workload it ran.
type episode struct {
	setupS        float64 // server launch → warm-up done
	opsPerS       float64
	rssMB         float64 // Σ peak RSS of the launched processes
	attempted     int
	before, after scrape // smbserver /metrics around the window

	mu       sync.Mutex // serving fails from the writer goroutine too
	problems []string   // output-check misses
}

func (e *episode) common() *episode { return e }

func (e *episode) fail(format string, args ...any) {
	e.mu.Lock()
	e.problems = append(e.problems, fmt.Sprintf(format, args...))
	e.mu.Unlock()
}

// episodeRun is an episode of either kind.
type episodeRun interface {
	common() *episode
	// endToEnd: the end-to-end metrics and diagnostics (setup_s excepted).
	endToEnd() map[string]float64
	// layerMetrics: a traced episode's own per-layer metrics, the
	// end-to-end time per op its reconciliation must add up to, and the
	// workers' span files.
	layerMetrics() (values map[string]float64, totalMs float64, traces []string, err error)
}

// runOnce runs one episode of the workload; seconds == 0 stops right after
// warm-up (a set-up repetition). It is traced when h.rec is set.
func (h *harness) runOnce(w workload, seed uint64, seconds float64) (episodeRun, error) {
	if w.Serve {
		return h.runServe(w, seed, seconds)
	}
	return h.runTraining(w, seed, seconds)
}

func (h *harness) measureEndToEnd(w workload, seed uint64, seconds float64, res *result) (map[string]float64, error) {
	var setups []float64
	for i := 1; i < h.setupReps; i++ {
		r, err := h.runOnce(w, seed, 0)
		if err != nil {
			return nil, err
		}
		res.Problems = append(res.Problems, r.common().problems...)
		setups = append(setups, r.common().setupS)
	}
	r, err := h.runOnce(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	e := r.common()
	res.Problems = append(res.Problems, e.problems...)
	res.Attempted = e.attempted
	values := r.endToEnd()
	values["ops_per_s"], values["peak_rss_mb"] = e.opsPerS, e.rssMB
	values["setup_s"] = median(append(setups, e.setupS))
	values["build_s"] = h.buildS
	return values, nil
}

func (r *trainRun) endToEnd() map[string]float64 {
	values := map[string]float64{
		"op_ms_p50":      chunkedQuantile(r.iters, 0.50),
		"op_ms_p95":      chunkedQuantile(r.iters, 0.95),
		"op_ms_p99":      quantile(durations(r.iters), 0.99),
		"op_samples":     float64(len(r.iters)),
		"final_val_loss": r.valLoss,
	}
	// Whole-run RunStats shares (warm-up included): the coarse comm/comp
	// split available without tracing.
	var comp, exposed, blocked, wall float64
	for _, res := range r.workers {
		comp += float64(res.CompNs)
		exposed += float64(res.ExposedNs)
		blocked += float64(res.BlockedNs)
		if n := len(res.Stamps); n > 0 {
			wall += float64(res.Stamps[n-1] - res.BootNs)
		}
	}
	if wall > 0 {
		values["comp_share"], values["exposed_share"], values["blocked_share"] = comp/wall, exposed/wall, blocked/wall
	}
	return values
}

func (r *serveRun) endToEnd() map[string]float64 {
	r1, r2, r3 := &r.phases[0], &r.phases[1], &r.phases[2]
	values := map[string]float64{
		"op_ms_p50":           chunkedQuantile(r2.served, 0.50),
		"op_ms_p95":           chunkedQuantile(r2.served, 0.95),
		"op_ms_p99":           quantile(durations(r2.served), 0.99),
		"op_samples":          float64(len(r2.served)),
		"infer_ms_p50_r1":     quantile(durations(r1.served), 0.50),
		"infer_ms_p95_r1":     quantile(durations(r1.served), 0.95),
		"infer_ms_p50_r3":     quantile(durations(r3.served), 0.50),
		"infer_ms_p95_r3":     quantile(durations(r3.served), 0.95),
		"push_ms_p50":         median(r.pushMs),
		"gen_lateness_ms_p95": quantile(r2.lateMs, 0.95),
		"rate_at_slo":         0,
	}
	for i := range r.phases {
		if r.phases[i].meetsSLO() {
			values["rate_at_slo"] = r.phases[i].rate
		}
	}
	return values
}
