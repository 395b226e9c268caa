package main

import "strconv"

// The metric catalogue: names and units, in the order BENCHMARK.json lists
// them. smoke_test.go checks that this file and BENCHMARK.json agree, in
// both directions.

type metricSpec struct {
	Name, Unit string
}

// endToEnd is emitted with tracing off, by every workload. An "op" is one
// SEASGD iteration on the train_* workloads and one /infer request on
// serve_storm_tcp:
//
//	ops_per_s   train: iterations/s, all workers, inside the window where all
//	            run beside each other. serve: requests/s of the one
//	            connection run closed-loop (its saturation rate).
//	op_ms_p50   train: iteration time from per-iteration Hook stamps, workers
//	            pooled. serve: /infer latency from the due time at R2.
//	setup_s     server launch → warm-up done; median of five set-ups.
//	peak_rss_mb Σ peak RSS of the launched processes.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is emitted by the traced run, by every workload. core.* are 0 on
// the serve workload and serve.* are 0 on the training workloads: the layer
// is not on that workload's path. smb.*.shm are 0 where the build has no shm
// transport.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"core.t1_ms", "ms"},
		{"core.t2_ms", "ms"},
		{"core.t45_ms", "ms"},
		{"core.ta5_ms", "ms"},
		{"core.push_hidden_ms", "ms"},
		{"core.overlap_ratio", "ratio"},
		{"core.t1_staleness_iters", "count"},
		{"core.unexplained_share", "ratio"},
		{"core.smb_share", "ratio"},
		{"core.contention_factor", "ratio"},
		{"core.iter_ms_p95", "ms"},
	}
	for _, op := range []string{"read_ms", "push_ms", "snap_cycle_ms"} {
		for _, t := range probeTransports {
			specs = append(specs, metricSpec{"smb." + op + "." + t, "ms"})
		}
	}
	return append(specs, []metricSpec{
		{"smb.wire_tax", "ratio"},
		{"smb.reads", "count"},
		{"smb.accumulates", "count"},
		{"smb.bytes_read", "bytes"},
		{"smb.bytes_written", "bytes"},
		{"smb.dispatch_ms", "ms"},
		{"smb.stripe_wait_ms", "ms"},
		{"smb.dup_acks", "count"},
		{"smb.conn_errors", "count"},
		{"smb.snap_cow_pages", "count"},
		{"nn.step_ms", "ms"},
		{"nn.forward_ms", "ms"},
		{"tensor.gemm_gflops", "GFLOP/s"},
		{"tensor.elastic_step_ms", "ms"},
		{"dataset.next_ms", "ms"},
		{"serve.server_ms_mean", "ms"},
		{"serve.batch_mean", "count"},
		{"serve.refreshes", "count"},
		{"serve.refresh_failures", "count"},
		{"serve.snapshot_age_s", "s"},
		{"serve.http_overhead_ms", "ms"},
		{"serve.infer_ms_p95", "ms"},
		{"serve.rate_at_slo", "1/s"},
		{"serve.push_ms_p50", "ms"},
		{"serve.gen_lateness_ms_p95", "ms"},
		{"telemetry.trace_overhead", "ratio"},
	}...)
}()

// diagnostics are printed in the full report of an untraced run, unbounded.
// op_ms_p95 is here and not above because it does not repeat: the host this
// was calibrated on drifts between a calm and a contended state over
// minutes, and the serving tail — requests that collide with a push on two
// cores — followed it from 4.3 to 7.3 ms with nothing else changed.
var diagnostics = []metricSpec{
	{"op_ms_p95", "ms"},
	{"op_ms_p99", "ms"},
	{"op_samples", "count"},
	{"final_val_loss", "loss"},
	{"build_s", "s"},
	{"comp_share", "ratio"},    // RunStats.CompTime / wall, whole run
	{"exposed_share", "ratio"}, // RunStats.ExposedCommTime / wall (T1+T2)
	{"blocked_share", "ratio"}, // RunStats.BlockedTime / wall (T.A5)
	{"infer_ms_p50_r1", "ms"},
	{"infer_ms_p95_r1", "ms"},
	{"infer_ms_p50_r3", "ms"},
	{"infer_ms_p95_r3", "ms"},
	{"rate_at_slo", "1/s"},
	{"push_ms_p50", "ms"},
	{"gen_lateness_ms_p95", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick renders the named metrics out of values. With all set, a metric
// nothing measured on this workload reads 0 (the contract wants every
// metric on every workload); without, it is left out.
func pick(specs []metricSpec, values map[string]float64, all bool) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		if v, ok := values[s.Name]; ok || all {
			out[s.Name] = metricValue{Value: v, Unit: s.Unit}
		}
	}
	return out
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
