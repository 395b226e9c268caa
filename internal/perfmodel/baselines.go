package perfmodel

import (
	"fmt"
	"math"
	"time"

	"shmcaffe/internal/nn"
	"shmcaffe/internal/simnet"
)

// SSGDOptions select the scenarios of the MPICaffe simulation beyond the
// paper's testbed. The zero value is MPICaffe as the paper runs it.
type SSGDOptions struct {
	// Chunks splits the allreduce into that many layer-wise pieces, each
	// launched as its share of the backward pass finishes and joined
	// after the last (Horovod-style pipelining, which the paper's setup
	// lacks: Sec. IV-C). 0 means 1: one allreduce after the backward pass.
	Chunks int
	// Stragglers jitters every iteration's compute time; the barrier then
	// pays the slowest worker.
	Stragglers StragglerModel
}

// backwardFraction is the share of an iteration's compute spent in the
// backward pass (roughly 2/3 for conv nets: backward ≈ 2× forward).
const backwardFraction = 0.66

// ring is one SSGD platform on the shared allreduce body: every worker
// computes, moves its ring share over its link, pays the collective's
// software step latency, meets the others at a barrier and applies the
// local update.
type ring struct {
	links   []*simnet.Link // worker w's share crosses links[w/perLink]
	perLink int
	factor  float64       // software volume factor on the ring share
	step    time.Duration // software latency per ring step; n ranks pay 2(n−1)
	update  time.Duration // local weight update after the allreduce
	chunks  int           // layer-wise allreduce pieces (1 = none)
	jitter  StragglerModel
}

func (r ring) run(p nn.Profile, workers, iters int) (IterBreakdown, error) {
	sim := simnet.New()
	// One barrier per chunk, and one closing the layer-wise iteration.
	bars := make([]*simnet.Barrier, r.chunks+1)
	for i := range bars {
		b, err := sim.NewBarrier(workers)
		if err != nil {
			return IterBreakdown{}, err
		}
		bars[i] = b
	}
	share := 2 * float64(workers-1) / float64(workers) *
		float64(p.ParamBytes) * r.factor / float64(r.chunks)
	latency := time.Duration(2*(workers-1)) * r.step / time.Duration(r.chunks)
	finish := make([]time.Duration, workers)
	for w := 0; w < workers; w++ {
		w := w
		link := r.links[w/r.perLink]
		comp := r.jitter.compute(w, p.CompTime)
		allreduce := func(pr *simnet.Proc, chunk int) {
			pr.Transfer(share, link)
			if latency > 0 {
				pr.Sleep(latency)
			}
			bars[chunk].Wait(pr)
		}
		sim.Go(fmt.Sprintf("worker%d", w), func(pr *simnet.Proc) {
			for it := 0; it < iters; it++ {
				c := comp()
				if workers == 1 {
					pr.Sleep(c) // plain SGD: nothing to reduce
					continue
				}
				if r.chunks == 1 {
					pr.Sleep(c)
					allreduce(pr, 0)
				} else {
					pr.Sleep(time.Duration(float64(c) * (1 - backwardFraction)))
					// Backward layer by layer; each finished chunk's
					// allreduce is launched and only joined at the end.
					done := sim.NewSemaphore(0)
					for k := 0; k < r.chunks; k++ {
						pr.Sleep(time.Duration(float64(c) * backwardFraction / float64(r.chunks)))
						k := k
						pr.Spawn(fmt.Sprintf("w%d-ar%d", w, k), func(ar *simnet.Proc) {
							allreduce(ar, k)
							done.Release()
						})
					}
					for k := 0; k < r.chunks; k++ {
						done.Acquire(pr)
					}
				}
				if r.update > 0 {
					pr.Sleep(r.update)
				}
				if r.chunks > 1 {
					bars[r.chunks].Wait(pr)
				}
			}
			finish[w] = pr.Now()
		})
	}
	return measureRun(sim, finish, iters, p.CompTime)
}

// SimulateCaffe reproduces BVLC Caffe: single-node SSGD over `gpus` GPUs
// with an NCCL ring allreduce across the node's (oversubscribed) PCIe
// fabric. One GPU degenerates to plain SGD with zero communication.
func SimulateCaffe(p nn.Profile, gpus, iters int, hw Hardware) (IterBreakdown, error) {
	if err := validate("gpus, iters", []int{gpus, iters}, hw, p); err != nil {
		return IterBreakdown{}, err
	}
	pcie := pcieLink(hw, "pcie", gpus)
	return ring{links: []*simnet.Link{pcie}, perLink: gpus, factor: 1, chunks: 1}.run(p, gpus, iters)
}

// SimulateMPICaffe reproduces the authors' MPICaffe baseline: SSGD with an
// MPI_Allreduce ring across all workers' node HCAs.
func SimulateMPICaffe(p nn.Profile, workers, iters int, hw Hardware, opts SSGDOptions) (IterBreakdown, error) {
	if opts.Chunks == 0 {
		opts.Chunks = 1
	}
	if err := validate("workers, iters, chunks", []int{workers, iters, opts.Chunks},
		hw, p, opts.Stragglers); err != nil {
		return IterBreakdown{}, err
	}
	return ring{
		links:   hcaLinks(hw, "node", nodesFor(hw, workers)),
		perLink: hw.GPUsPerNode,
		factor:  hw.MPISoftwareFactor,
		step:    hw.MPIStepLatency,
		update:  hw.localUpdateTime(float64(p.ParamBytes)),
		chunks:  opts.Chunks,
		jitter:  opts.Stragglers,
	}.run(p, workers, iters)
}

// SimulateCaffeMPI reproduces Inspur Caffe-MPI's star topology: the master
// (on its own node) gathers every worker's gradients over MPI, averages and
// updates, then distributes the weights back. The MPI software factor
// models the copy/protocol overhead of the non-RDMA path.
func SimulateCaffeMPI(p nn.Profile, workers, iters int, hw Hardware) (IterBreakdown, error) {
	if err := validate("workers, iters", []int{workers, iters}, hw, p); err != nil {
		return IterBreakdown{}, err
	}
	if workers == 1 {
		return IterBreakdown{Iter: p.CompTime, Comp: p.CompTime}, nil
	}
	sim := simnet.New()
	nNodes := nodesFor(hw, workers)
	nodes := hcaLinks(hw, "node", nNodes+1) // extra node hosts the master
	master := nodes[nNodes]
	volume := float64(p.ParamBytes) * hw.MPISoftwareFactor
	updTime := hw.localUpdateTime(float64(p.ParamBytes))

	// Gather, update and scatter each end at a barrier of every worker
	// and the master.
	var bars [3]*simnet.Barrier
	for i := range bars {
		var err error
		if bars[i], err = sim.NewBarrier(workers + 1); err != nil {
			return IterBreakdown{}, err
		}
	}
	barGather, barUpdate, barScatter := bars[0], bars[1], bars[2]

	finish := make([]time.Duration, workers)
	for w := 0; w < workers; w++ {
		w := w
		node := nodes[w/hw.GPUsPerNode]
		sim.Go(fmt.Sprintf("worker%d", w), func(pr *simnet.Proc) {
			for it := 0; it < iters; it++ {
				pr.Sleep(p.CompTime)
				// Gradient gather into the master.
				pr.Transfer(volume, node, master)
				barGather.Wait(pr)
				// Master applies the update.
				barUpdate.Wait(pr)
				// Weight scatter back to the workers.
				pr.Transfer(volume, master, node)
				barScatter.Wait(pr)
			}
			finish[w] = pr.Now()
		})
	}
	sim.Go("master", func(pr *simnet.Proc) {
		for it := 0; it < iters; it++ {
			barGather.Wait(pr)
			pr.Sleep(updTime)
			barUpdate.Wait(pr)
			barScatter.Wait(pr)
		}
	})
	return measureRun(sim, finish, iters, p.CompTime)
}

// SimulateSMBBandwidth reproduces the Fig. 7 experiment: n processes each
// move totalBytes through one SMB server in opBytes chunks (50/50
// read/write). It returns the aggregated bandwidth in bytes/sec.
func SimulateSMBBandwidth(n int, totalBytes, opBytes float64, hw Hardware) (float64, error) {
	if err := validate("processes", []int{n}, hw); err != nil {
		return 0, err
	}
	if !(totalBytes > 0 && opBytes > 0) || math.IsInf(totalBytes, 1) {
		return 0, fmt.Errorf("perfmodel: bandwidth sim total=%v op=%v", totalBytes, opBytes)
	}
	sim := simnet.New()
	// Paper layout: 6 GPU servers host the client processes.
	const clientNodes = 6
	nodes := hcaLinks(hw, "node", clientNodes)
	server := hcaLinks(hw, "smb", 1)[0]
	for i := 0; i < n; i++ {
		node := nodes[i%clientNodes]
		sim.Go(fmt.Sprintf("proc%d", i), func(pr *simnet.Proc) {
			moved := 0.0
			for moved < totalBytes {
				chunk := opBytes
				if totalBytes-moved < chunk {
					chunk = totalBytes - moved
				}
				pr.TransferCapped(chunk, hw.PerFlowCap, node, server)
				moved += chunk
			}
		})
	}
	if err := sim.Run(); err != nil {
		return 0, err
	}
	elapsed := sim.Now().Seconds()
	if elapsed <= 0 {
		return 0, fmt.Errorf("perfmodel: zero elapsed time")
	}
	return float64(n) * totalBytes / elapsed, nil
}
