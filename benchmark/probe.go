package main

import (
	"fmt"
	"time"
)

// Unloaded per-layer probes: each layer's public functions timed alone, at
// the workload's exact sizes, with nothing else running but the probe's own
// smbserver. Against them the loaded numbers of the traced run read as
// contention (core.t45_ms / nn.step_ms) or wire tax (read over tcp_sg /
// read in-process).

// probeTransports are the smb.* probe columns. "local" is the in-process
// LocalClient: the store and kernels with no wire at all.
var probeTransports = []string{"local", "tcp", "tcp_sg", "shm"}

// timeReps calls fn repeatedly — at least 7 times, then until probeBudget
// has passed, at most 300 times — with a driver span around every call, and
// returns the median duration in ms.
func (h *harness) timeReps(layer, name string, fn func() error) (float64, error) {
	var ms []float64
	began := time.Now()
	for len(ms) < 7 || (time.Since(began) < h.probeBudget && len(ms) < 300) {
		done := h.rec.span(layer, name)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		done()
		if err != nil {
			return 0, fmt.Errorf("probe %s.%s: %w", layer, name, err)
		}
		ms = append(ms, float64(d.Nanoseconds())/1e6)
	}
	return median(ms), nil
}

func (h *harness) runProbes(w workload, seed uint64) (map[string]float64, error) {
	out := make(map[string]float64)
	m := w.Model
	net, err := buildNet(m, "probe")
	if err != nil {
		return nil, err
	}
	net.InitWeights(newRNG(seed))
	elems := net.NumParams()
	weights := net.FlatWeights(nil)

	// nn, tensor, dataset: in-process, no server needed.
	train, _, err := buildData(m, seed)
	if err != nil {
		return nil, err
	}
	ld, err := newLoader(train, m.Batch, seed)
	if err != nil {
		return nil, err
	}
	if out["dataset.next_ms"], err = h.timeReps("dataset", "next", func() error { ld.Next(); return nil }); err != nil {
		return nil, err
	}
	solver := newSGDSolver(net, solverFor(m))
	batch := ld.Next()
	if out["nn.step_ms"], err = h.timeReps("nn", "step", func() error {
		_, err := solver.Step(batch.X, batch.Labels)
		return err
	}); err != nil {
		return nil, err
	}
	one, err := tensorFromSlice(make([]float32, m.inputLen()), append([]int{1}, net.InShape()...)...)
	if err != nil {
		return nil, err
	}
	if out["nn.forward_ms"], err = h.timeReps("nn", "forward", func() error {
		_, err := net.Forward(one, false)
		return err
	}); err != nil {
		return nil, err
	}
	a, b, c := make([]float32, m.GemmM*m.GemmK), make([]float32, m.GemmK*m.GemmN), make([]float32, m.GemmM*m.GemmN)
	rng := newRNG(seed)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	for i := range b {
		b[i] = float32(rng.NormFloat64())
	}
	gemmMs, err := h.timeReps("tensor", "gemm", func() error { tensorGemm(m.GemmM, m.GemmN, m.GemmK, a, b, c); return nil })
	if err != nil {
		return nil, err
	}
	out["tensor.gemm_gflops"] = 2 * float64(m.GemmM) * float64(m.GemmN) * float64(m.GemmK) / (gemmMs * 1e6)
	delta, local := make([]float32, elems), append([]float32(nil), weights...)
	if out["tensor.elastic_step_ms"], err = h.timeReps("tensor", "elastic_step", func() error {
		fusedElasticStep(0.2, delta, local, weights)
		return nil
	}); err != nil {
		return nil, err
	}

	// smb: one probe server offering every transport.
	cl, err := newCluster(h.root)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	srv, err := cl.startSMBServer(h.binDir, shmSupported())
	if err != nil {
		return nil, err
	}
	for _, t := range probeTransports {
		if t == "shm" && !shmSupported() {
			continue // reported as 0: the transport does not exist in this build
		}
		if err := h.probeTransport(out, t, srv.addr, weights); err != nil {
			return nil, fmt.Errorf("probe transport %s: %w", t, err)
		}
	}
	if local := out["smb.read_ms.local"]; local > 0 {
		out["smb.wire_tax"] = out["smb.read_ms.tcp_sg"] / local
	}
	return out, cl.close()
}

// probeTransport times the three data-path cycles a worker or shmserve runs
// against Wg — the T1 read, the push, the snapshot refresh — over one
// transport, through the same core.JobBuffers calls the worker makes.
func (h *harness) probeTransport(out map[string]float64, t, addr string, weights []float32) error {
	var c smbClient
	if t == "local" {
		c = newLocalClient(newStore())
	} else {
		var err error
		if c, err = dialTransport(t, dialOptions{Addr: addr, OpTimeout: smbOpTimeout, ClientID: 2000, Seed: 2000}); err != nil {
			return err
		}
	}
	defer c.Close()
	job := "probe_" + t
	elems := len(weights)
	bufs, err := setupBuffersPolling(c, job, 0, 1, elems, weights, bootstrapOptions{})
	if err != nil {
		return err
	}
	dst := make([]float32, elems)
	if out["smb.read_ms."+t], err = h.timeReps("smb", "read."+t, func() error { return bufs.ReadGlobal(dst) }); err != nil {
		return err
	}
	delta := make([]float32, elems)
	for i := range delta {
		delta[i] = 1e-6
	}
	if out["smb.push_ms."+t], err = h.timeReps("smb", "push."+t, func() error { return bufs.PushIncrement(delta) }); err != nil {
		return err
	}
	sn, ok := c.(snapshotter)
	if !ok {
		return fmt.Errorf("client does not serve snapshots")
	}
	key, err := c.Lookup(segmentNames{Job: job}.Global())
	if err != nil {
		return err
	}
	wg, err := c.Attach(key)
	if err != nil {
		return err
	}
	raw := make([]byte, elems*4)
	out["smb.snap_cycle_ms."+t], err = h.timeReps("smb", "snap_cycle."+t, func() error {
		info, err := sn.Snapshot(wg)
		if err != nil {
			return err
		}
		if err := sn.SnapRead(info.ID, 0, raw); err != nil {
			return err
		}
		return sn.SnapRelease(info.ID)
	})
	return err
}
