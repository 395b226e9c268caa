package perfmodel

import (
	"fmt"
	"time"

	"shmcaffe/internal/nn"
	"shmcaffe/internal/simnet"
)

// validate is the argument check every Simulate* runs first: each model
// must validate, and each count (named by what) must be ≥ 1.
func validate(what string, counts []int, models ...interface{ Validate() error }) error {
	for _, m := range models {
		if err := m.Validate(); err != nil {
			return err
		}
	}
	for _, n := range counts {
		if n < 1 {
			return fmt.Errorf("perfmodel: %s = %v: each must be ≥ 1", what, counts)
		}
	}
	return nil
}

// newLink is simnet.NewLink for a link a validated Hardware describes, whose
// bandwidth is positive and latency non-negative: it cannot fail.
func newLink(name string, bandwidth float64, latency time.Duration) *simnet.Link {
	l, err := simnet.NewLink(name, bandwidth, latency)
	if err != nil {
		panic(err)
	}
	return l
}

// hcaLinks returns n HCA links, named prefix0-hca … prefix(n-1)-hca.
func hcaLinks(hw Hardware, prefix string, n int) []*simnet.Link {
	links := make([]*simnet.Link, n)
	for i := range links {
		links[i] = newLink(fmt.Sprintf("%s%d-hca", prefix, i), hw.EffectiveHCA(), hw.HCALatency)
	}
	return links
}

// pcieLink is the host PCIe fabric of a node carrying gpus GPUs.
func pcieLink(hw Hardware, name string, gpus int) *simnet.Link {
	return newLink(name, hw.NodePCIeBandwidth(gpus), 500*time.Nanosecond)
}

// nodesFor returns the node count hosting `workers` (≥ 1) workers.
func nodesFor(hw Hardware, workers int) int {
	return (workers + hw.GPUsPerNode - 1) / hw.GPUsPerNode
}

// measureRun executes the simulation and converts per-worker completion
// times into an averaged IterBreakdown.
func measureRun(sim *simnet.Simulation, finish []time.Duration, iters int, comp time.Duration) (IterBreakdown, error) {
	if err := sim.Run(); err != nil {
		return IterBreakdown{}, err
	}
	var total time.Duration
	for _, f := range finish {
		total += f
	}
	iter := total / time.Duration(len(finish)*iters)
	comm := iter - comp
	if comm < 0 {
		comm = 0
	}
	return IterBreakdown{Iter: iter, Comp: comp, Comm: comm}, nil
}

// SEASGDOptions select the design-point ablations of DESIGN.md §6 and the
// scenarios beyond the paper's testbed. The zero value is ShmCaffe-A as
// the paper runs it.
type SEASGDOptions struct {
	// DisableOverlap pushes the increment inline (no update thread).
	DisableOverlap bool
	// HideGlobalRead moves the T1 read into the update thread (more
	// staleness, less exposed time — the trade-off the paper rejects).
	HideGlobalRead bool
	// UpdateInterval is the iterations between global exchanges (below 1
	// means 1).
	UpdateInterval int
	// ClientSideRMW replaces the server-side Accumulate with a client
	// read-modify-write of Wg: double the transfer volume plus a race
	// window — the design point SMB's Accumulate verb eliminates.
	ClientSideRMW bool
	// Servers stripes the weight vector across that many SMB servers (the
	// paper's Sec. V future work): every transfer splits into Servers
	// concurrent flows of P/Servers bytes, and each server's exclusive
	// accumulate covers only its own stripe. 0 means one server.
	Servers int
	// Stragglers jitters every iteration's compute time (the Sec. II
	// motivation for asynchrony).
	Stragglers StragglerModel
}

// smbTier is the simulated SMB side of a SEASGD run: the weight vector
// striped over opts.Servers servers, each behind its own HCA and its own
// exclusive accumulate.
type smbTier struct {
	sim    *simnet.Simulation
	hw     Hardware
	opts   SEASGDOptions
	hcas   []*simnet.Link
	accs   []*simnet.Semaphore
	stripe float64       // bytes per server
	tulw   time.Duration // T2 over the whole vector
	tacc   time.Duration // T.A3 over one stripe
	tadd   time.Duration // the client-side add of one stripe (ClientSideRMW)
}

func newSMBTier(sim *simnet.Simulation, hw Hardware, p nn.Profile, opts SEASGDOptions) *smbTier {
	t := &smbTier{
		sim:    sim,
		hw:     hw,
		opts:   opts,
		hcas:   hcaLinks(hw, "smb", opts.Servers),
		stripe: float64(p.ParamBytes) / float64(opts.Servers),
		tulw:   hw.localUpdateTime(float64(p.ParamBytes)),
	}
	t.tacc = hw.accumTime(t.stripe)
	t.tadd = hw.localUpdateTime(t.stripe)
	for range t.hcas {
		t.accs = append(t.accs, sim.NewSemaphore(1))
	}
	return t
}

// party is one SEASGD worker's Fig. 6 pair of threads on a node: the main
// thread's T1+T2 and the update thread's T.A1–T.A3 exclude each other
// through the per-worker lock, and each push passes from the one to the
// other through pushQ.
type party struct {
	*smbTier
	node  *simnet.Link
	lock  *simnet.Semaphore
	pushQ *simnet.Queue[int]
}

func (t *smbTier) party(node *simnet.Link) *party {
	return &party{smbTier: t, node: node, lock: t.sim.NewSemaphore(1), pushQ: simnet.NewQueue[int](t.sim)}
}

// exchange is the main thread's global exchange at iteration it: T1 and
// T2 under the lock, then T3 wakes the update thread — or, with
// DisableOverlap, the push runs inline.
func (pt *party) exchange(pr *simnet.Proc, it int) {
	pt.lock.Acquire(pr)
	if !pt.opts.HideGlobalRead {
		pt.stripes(pr, pt.move) // T1: read Wg.
	}
	pr.Sleep(pt.tulw) // T2: elastic local update.
	pt.lock.Release()
	if pt.opts.DisableOverlap {
		pt.pushLocked(pr)
	} else {
		pt.pushQ.Push(it) // T3: wake the update thread.
	}
}

// updateThread pushes once per queued exchange until the main thread
// closes the queue.
func (pt *party) updateThread(pr *simnet.Proc) {
	for {
		if _, ok := pt.pushQ.Pop(pr); !ok {
			return
		}
		pt.pushLocked(pr)
	}
}

// pushLocked runs T.A1–T.A3 on every stripe under the worker's lock.
func (pt *party) pushLocked(pr *simnet.Proc) {
	pt.lock.Acquire(pr)
	pt.stripes(pr, pt.push)
	pt.lock.Release()
}

// move carries stripe i between the worker's node and its server.
func (pt *party) move(pr *simnet.Proc, i int) {
	pr.TransferCapped(pt.stripe, pt.hw.PerFlowCap, pt.node, pt.hcas[i])
}

// push is T.A1–T.A3 on stripe i: write ΔWx, then add it into Wg inside
// the server's exclusive section.
func (pt *party) push(pr *simnet.Proc, i int) {
	pt.move(pr, i) // T.A1: write ΔWx.
	pt.accs[i].Acquire(pr)
	if pt.opts.ClientSideRMW {
		// Ablation: the client must read Wg, add locally and write it
		// back — double traffic under the exclusive section instead of
		// a server-side add.
		pt.move(pr, i)
		pr.Sleep(pt.tadd)
		pt.move(pr, i)
	} else {
		pr.Sleep(pt.tacc) // T.A3: exclusive accumulate on the server.
	}
	pt.accs[i].Release()
	if pt.opts.HideGlobalRead {
		pt.move(pr, i) // The update thread refreshes the cached Wg.
	}
}

// stripes runs fn once per server stripe: inline for one server, else in
// concurrent child processes that all finish before it returns.
func (pt *party) stripes(pr *simnet.Proc, fn func(*simnet.Proc, int)) {
	if len(pt.hcas) == 1 {
		fn(pr, 0)
		return
	}
	done := pt.sim.NewSemaphore(0)
	for i := range pt.hcas {
		i := i
		pr.Spawn(fmt.Sprintf("%s-stripe%d", pr.Name(), i), func(c *simnet.Proc) {
			fn(c, i)
			done.Release()
		})
	}
	for range pt.hcas {
		done.Acquire(pr)
	}
}

// SimulateSEASGD reproduces one ShmCaffe-A configuration: `workers` SEASGD
// workers (4 per node) against the SMB tier, running `iters` iterations of
// the Fig. 6 loop. It returns the averaged per-iteration breakdown.
func SimulateSEASGD(p nn.Profile, workers, iters int, hw Hardware, opts SEASGDOptions) (IterBreakdown, error) {
	if opts.UpdateInterval < 1 {
		opts.UpdateInterval = 1
	}
	if opts.Servers == 0 {
		opts.Servers = 1
	}
	if err := validate("workers, iters, servers", []int{workers, iters, opts.Servers},
		hw, p, opts.Stragglers); err != nil {
		return IterBreakdown{}, err
	}
	sim := simnet.New()
	nodes := hcaLinks(hw, "node", nodesFor(hw, workers))
	tier := newSMBTier(sim, hw, p, opts)
	finish := make([]time.Duration, workers)
	for w := 0; w < workers; w++ {
		w := w
		pt := tier.party(nodes[w/hw.GPUsPerNode])
		comp := opts.Stragglers.compute(w, p.CompTime)
		sim.Go(fmt.Sprintf("worker%d-main", w), func(pr *simnet.Proc) {
			for it := 0; it < iters; it++ {
				if it%opts.UpdateInterval == 0 {
					pt.exchange(pr, it)
				}
				pr.Sleep(comp()) // T4+T5: minibatch compute.
			}
			pt.pushQ.Close()
			finish[w] = pr.Now()
		})
		sim.Go(fmt.Sprintf("worker%d-upd", w), pt.updateThread)
	}
	return measureRun(sim, finish, iters, p.CompTime)
}

// SimulateHSGD reproduces one ShmCaffe-H configuration: groups of
// synchronous workers (one group per node, NCCL ring over the node's PCIe)
// whose roots run SEASGD against the SMB server. groupSizes lists the
// member count of each group — e.g. Table III's 8(S4×A2) is
// []int{4, 4}.
func SimulateHSGD(p nn.Profile, groupSizes []int, iters int, hw Hardware) (IterBreakdown, error) {
	if err := validate("groups, iters, group sizes...", append([]int{len(groupSizes), iters}, groupSizes...),
		hw, p); err != nil {
		return IterBreakdown{}, err
	}
	sim := simnet.New()
	nodes := hcaLinks(hw, "node", len(groupSizes))
	tier := newSMBTier(sim, hw, p, SEASGDOptions{UpdateInterval: 1, Servers: 1})
	param := float64(p.ParamBytes)
	finish := make([]time.Duration, len(groupSizes))
	for gi, size := range groupSizes {
		gi, size := gi, size
		pcie := pcieLink(hw, fmt.Sprintf("node%d-pcie", gi), size)
		bar, err := sim.NewBarrier(size)
		if err != nil {
			return IterBreakdown{}, err
		}
		root := tier.party(nodes[gi])
		for m := 0; m < size; m++ {
			m := m
			sim.Go(fmt.Sprintf("g%dm%d", gi, m), func(pr *simnet.Proc) {
				ringShare := 2 * float64(size-1) / float64(size) * param
				for it := 0; it < iters; it++ {
					// (1) Local gradient computation.
					pr.Sleep(p.CompTime)
					if size > 1 {
						// (2) ncclAllReduce over the node PCIe.
						pr.Transfer(ringShare, pcie)
						bar.Wait(pr)
					}
					if m == 0 {
						// (3) Root's SEASGD exchange (read exposed,
						// push overlapped with the next compute).
						root.exchange(pr, it)
						// (4) Broadcast W'grp to the group.
						if size > 1 {
							pr.Transfer(float64(size-1)*param, pcie)
						}
					}
					if size > 1 {
						bar.Wait(pr)
					}
				}
				if m == 0 {
					root.pushQ.Close()
					finish[gi] = pr.Now()
				}
			})
		}
		sim.Go(fmt.Sprintf("g%d-upd", gi), root.updateThread)
	}
	return measureRun(sim, finish, iters, p.CompTime)
}
