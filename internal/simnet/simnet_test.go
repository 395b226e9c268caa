package simnet

import (
	"math"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	s := New()
	var woke time.Duration
	s.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Second)
		woke = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", woke)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("sim time %v", s.Now())
	}
}

func TestSleepOrderingDeterministic(t *testing.T) {
	s := New()
	var order []string
	for _, spec := range []struct {
		name string
		d    time.Duration
	}{{"c", 3 * time.Second}, {"a", 1 * time.Second}, {"b", 2 * time.Second}} {
		name, d := spec.name, spec.d
		s.Go(name, func(p *Proc) {
			p.Sleep(d)
			order = append(order, name)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order %v", order)
	}
}

func TestSingleTransferTime(t *testing.T) {
	s := New()
	link, err := NewLink("hca", 1e9, time.Millisecond) // 1 GB/s, 1 ms latency
	if err != nil {
		t.Fatal(err)
	}
	s.Go("sender", func(p *Proc) {
		p.Transfer(1e9, link) // 1 GB
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := time.Second + time.Millisecond
	if diff := s.Now() - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("transfer took %v, want ~%v", s.Now(), want)
	}
}

// TestFairSharing: two equal flows on one link each get half the bandwidth,
// so both finish in 2× the solo time.
func TestFairSharing(t *testing.T) {
	s := New()
	link, _ := NewLink("hca", 1e9, 0)
	finish := make([]time.Duration, 2)
	for i := 0; i < 2; i++ {
		i := i
		s.Go("w", func(p *Proc) {
			p.Transfer(1e9, link)
			finish[i] = p.Now()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, f := range finish {
		if math.Abs(f.Seconds()-2) > 0.01 {
			t.Fatalf("flow %d finished at %v, want ~2s", i, f)
		}
	}
}

// TestStaggeredFlows: flow B (0.5 GB) starts at t=0.5s while A (1 GB at
// 1 GB/s) is in flight. A runs alone for 0.5 s (0.5 GB done), then both
// share at 0.5 GB/s; each has exactly 0.5 GB left, so both finish at 1.5 s.
func TestStaggeredFlows(t *testing.T) {
	s := New()
	link, _ := NewLink("hca", 1e9, 0)
	var aDone, bDone time.Duration
	s.Go("a", func(p *Proc) {
		p.Transfer(1e9, link)
		aDone = p.Now()
	})
	s.Go("b", func(p *Proc) {
		p.Sleep(500 * time.Millisecond)
		p.Transfer(0.5e9, link)
		bDone = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(aDone.Seconds()-1.5) > 0.01 {
		t.Fatalf("A finished at %v, want 1.5s", aDone)
	}
	if math.Abs(bDone.Seconds()-1.5) > 0.01 {
		t.Fatalf("B finished at %v, want 1.5s", bDone)
	}
}

// TestPerFlowCap: a capped flow cannot exceed its cap even on an idle link.
func TestPerFlowCap(t *testing.T) {
	s := New()
	link, _ := NewLink("hca", 10e9, 0)
	s.Go("capped", func(p *Proc) {
		p.TransferCapped(1e9, 0.5e9, link) // 1 GB at most 0.5 GB/s
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Now().Seconds()-2) > 0.01 {
		t.Fatalf("capped transfer took %v, want 2s", s.Now())
	}
}

// TestMultiLinkBottleneck: a flow crossing two links is limited by the
// slower one.
func TestMultiLinkBottleneck(t *testing.T) {
	s := New()
	fast, _ := NewLink("fast", 10e9, 0)
	slow, _ := NewLink("slow", 1e9, 0)
	s.Go("w", func(p *Proc) {
		p.Transfer(2e9, fast, slow)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Now().Seconds()-2) > 0.01 {
		t.Fatalf("two-link transfer took %v, want 2s", s.Now())
	}
}

// TestWaterFillingUnevenPaths: flows A (shared bottleneck) and B (private
// fast path) — B should get the leftover bandwidth of the fast link.
// Topology: linkX 3 GB/s shared by A and B; linkY 1 GB/s crossed only by A.
// Max-min: A gets 1 GB/s (linkY), B gets 2 GB/s (remainder of linkX).
func TestWaterFillingUnevenPaths(t *testing.T) {
	s := New()
	linkX, _ := NewLink("x", 3e9, 0)
	linkY, _ := NewLink("y", 1e9, 0)
	var aDone, bDone time.Duration
	s.Go("a", func(p *Proc) {
		p.Transfer(1e9, linkX, linkY)
		aDone = p.Now()
	})
	s.Go("b", func(p *Proc) {
		p.Transfer(2e9, linkX)
		bDone = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(aDone.Seconds()-1) > 0.02 {
		t.Fatalf("A finished at %v, want ~1s", aDone)
	}
	if math.Abs(bDone.Seconds()-1) > 0.02 {
		t.Fatalf("B finished at %v, want ~1s", bDone)
	}
}

func TestSpawn(t *testing.T) {
	s := New()
	var childRan bool
	s.Go("parent", func(p *Proc) {
		p.Spawn("child", func(c *Proc) {
			c.Sleep(time.Second)
			childRan = true
		})
		p.Sleep(2 * time.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("spawned child did not run")
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("sim ended at %v", s.Now())
	}
}

func TestSemaphoreMutualExclusion(t *testing.T) {
	s := New()
	mu := s.NewSemaphore(1)
	var inside, maxInside int
	for i := 0; i < 4; i++ {
		s.Go("w", func(p *Proc) {
			mu.Acquire(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(time.Second)
			inside--
			mu.Release()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("critical section concurrency %d, want 1", maxInside)
	}
	if s.Now() != 4*time.Second {
		t.Fatalf("serialized sections took %v, want 4s", s.Now())
	}
}

func TestBarrier(t *testing.T) {
	s := New()
	b, err := s.NewBarrier(3)
	if err != nil {
		t.Fatal(err)
	}
	var after []time.Duration
	for i := 0; i < 3; i++ {
		d := time.Duration(i+1) * time.Second
		s.Go("w", func(p *Proc) {
			p.Sleep(d)
			b.Wait(p)
			after = append(after, p.Now())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, a := range after {
		if a != 3*time.Second {
			t.Fatalf("barrier released at %v, want 3s", a)
		}
	}
	if _, err := s.NewBarrier(0); err == nil {
		t.Fatal("expected error for barrier size 0")
	}
}

func TestBarrierReusable(t *testing.T) {
	s := New()
	b, _ := s.NewBarrier(2)
	var rounds int
	for i := 0; i < 2; i++ {
		s.Go("w", func(p *Proc) {
			for r := 0; r < 3; r++ {
				p.Sleep(time.Second)
				b.Wait(p)
			}
			rounds++
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if rounds != 2 {
		t.Fatalf("rounds %d", rounds)
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("3 barrier rounds took %v", s.Now())
	}
}

func TestQueueFIFOAndBlocking(t *testing.T) {
	s := New()
	q := NewQueue[int](s)
	var got []int
	s.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v, ok := q.Pop(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	s.Go("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(time.Second)
			q.Push(i)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("queue order %v", got)
	}
}

func TestQueueClose(t *testing.T) {
	s := New()
	q := NewQueue[int](s)
	var sawClose bool
	s.Go("consumer", func(p *Proc) {
		if _, ok := q.Pop(p); ok {
			t.Error("expected closed queue")
		} else {
			sawClose = true
		}
	})
	s.Go("closer", func(p *Proc) {
		p.Sleep(time.Second)
		q.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawClose {
		t.Fatal("consumer never observed close")
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	mu := s.NewSemaphore(0) // never released
	s.Go("stuck", func(p *Proc) {
		mu.Acquire(p)
	})
	if err := s.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestNewLinkValidation(t *testing.T) {
	if _, err := NewLink("bad", 0, 0); err == nil {
		t.Fatal("expected error for zero bandwidth")
	}
	if _, err := NewLink("bad", 1, -time.Second); err == nil {
		t.Fatal("expected error for negative latency")
	}
}

// TestAggregateBandwidthScales is a miniature of Fig. 7: N clients pushing
// through a shared server link reach the link capacity regardless of N.
func TestAggregateBandwidthScales(t *testing.T) {
	for _, n := range []int{2, 8, 32} {
		s := New()
		server, _ := NewLink("server", 7e9, 0)
		per := 1e9 // 1 GB each
		for i := 0; i < n; i++ {
			s.Go("client", func(p *Proc) {
				p.Transfer(per, server)
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		aggBW := float64(n) * per / s.Now().Seconds()
		if math.Abs(aggBW-7e9)/7e9 > 0.02 {
			t.Fatalf("n=%d aggregate %v B/s, want ~7e9", n, aggBW)
		}
	}
}

func TestZeroByteTransferIsLatencyOnly(t *testing.T) {
	s := New()
	link, _ := NewLink("l", 1e9, time.Millisecond)
	s.Go("w", func(p *Proc) {
		p.Transfer(0, link)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != time.Millisecond {
		t.Fatalf("zero-byte transfer took %v, want 1ms", s.Now())
	}
}

// TestUnknownYieldKindPanics: the scheduler's yield switch has no silent
// fallthrough — a kind without an arm stops the simulation instead of
// dropping the process.
func TestUnknownYieldKindPanics(t *testing.T) {
	s := New()
	go func() { s.yield <- yieldMsg{kind: yieldSpawn + 1} }()
	defer func() {
		if recover() == nil {
			t.Fatal("unknown yield kind did not panic")
		}
	}()
	live := 1
	s.handleYields(&live)
}
