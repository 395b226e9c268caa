package nccl

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestLeaveBeforeCollective: a departed member is simply excluded; the
// survivors' allreduce sums and averages over the survivor count.
func TestLeaveBeforeCollective(t *testing.T) {
	g, err := NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	g.Leave(2)
	if g.Live() != 3 {
		t.Fatalf("live = %d, want 3", g.Live())
	}

	survivors := []int{0, 1, 3}
	bufs := map[int][]float32{}
	for _, r := range survivors {
		bufs[r] = []float32{float32(r + 1), float32(10 * (r + 1))}
	}
	var wg sync.WaitGroup
	errs := make(map[int]error)
	var mu sync.Mutex
	for _, r := range survivors {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			err := g.AllReduceMean(r, bufs[r])
			mu.Lock()
			errs[r] = err
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	for _, r := range survivors {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
	}
	// (1+2+4)/3, (10+20+40)/3
	want := []float32{7.0 / 3, 70.0 / 3}
	for _, r := range survivors {
		for i, w := range want {
			if diff := bufs[r][i] - w; diff > 1e-5 || diff < -1e-5 {
				t.Fatalf("rank %d elem %d = %v, want %v", r, i, bufs[r][i], w)
			}
		}
	}
}

// TestLeaveUnblocksInFlightCollective: survivors parked at a barrier
// waiting for a member that will never arrive restart over the remaining
// membership when Leave fires, and still produce the correct survivor sum.
func TestLeaveUnblocksInFlightCollective(t *testing.T) {
	g, err := NewGroup(3)
	if err != nil {
		t.Fatal(err)
	}
	bufs := map[int][]float32{
		0: {1, 2, 3, 4, 5},
		1: {10, 20, 30, 40, 50},
	}
	done := make(chan int, 2)
	errs := make(map[int]error)
	var mu sync.Mutex
	for _, r := range []int{0, 1} {
		go func(r int) {
			err := g.allReduceSum(r, bufs[r])
			mu.Lock()
			errs[r] = err
			mu.Unlock()
			done <- r
		}(r)
	}
	// Rank 2 never shows up. Give the survivors time to park, then reap it.
	select {
	case r := <-done:
		t.Fatalf("rank %d returned before the failed member was reaped", r)
	case <-time.After(50 * time.Millisecond):
	}
	g.Leave(2)
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("survivors still blocked after Leave")
		}
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	want := []float32{11, 22, 33, 44, 55}
	for _, r := range []int{0, 1} {
		for i, w := range want {
			if bufs[r][i] != w {
				t.Fatalf("rank %d elem %d = %v, want %v", r, i, bufs[r][i], w)
			}
		}
	}
}

// TestLeaveToSingleMember: shrinking to one member degenerates collectives
// to no-ops that still succeed.
func TestLeaveToSingleMember(t *testing.T) {
	g, err := NewGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	g.Leave(1)
	buf := []float32{3, 4}
	if err := g.AllReduceMean(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 3 || buf[1] != 4 {
		t.Fatalf("single-member allreduce mutated buffer: %v", buf)
	}
}

// TestBroadcastDepartedRoot: broadcasting from a member that left is a
// permanent error, not a hang.
func TestBroadcastDepartedRoot(t *testing.T) {
	g, err := NewGroup(3)
	if err != nil {
		t.Fatal(err)
	}
	g.Leave(0)
	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	for _, r := range []int{1, 2} {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errCh <- g.Broadcast(r, 0, []float32{1})
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if !errors.Is(err, ErrGroup) {
			t.Fatalf("got %v, want ErrGroup", err)
		}
	}
}

// TestLeaveIdempotent: double-Leave and out-of-range ranks are no-ops.
func TestLeaveIdempotent(t *testing.T) {
	g, err := NewGroup(3)
	if err != nil {
		t.Fatal(err)
	}
	g.Leave(1)
	g.Leave(1)
	g.Leave(-1)
	g.Leave(7)
	if g.Live() != 2 {
		t.Fatalf("live = %d, want 2", g.Live())
	}
}

// TestReduceRestartsAfterLeave: a root and a member parked in a reduce that
// waits for a member that will never arrive restart over the survivors when
// Leave fires; the root gets the survivors' rank-order sum and the member's
// buffer is untouched.
func TestReduceRestartsAfterLeave(t *testing.T) {
	g, err := NewGroup(3)
	if err != nil {
		t.Fatal(err)
	}
	bufs := map[int][]float32{
		0: {1, -2, 3, 0.5},
		2: {10, 20, -30, 0.25},
	}
	done := make(chan error, 2)
	for _, r := range []int{0, 2} {
		go func(r int) { done <- g.Reduce(r, 0, bufs[r]) }(r)
	}
	select {
	case err := <-done:
		t.Fatalf("a rank returned (%v) before the failed member was reaped", err)
	case <-time.After(50 * time.Millisecond):
	}
	g.Leave(1)
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("survivors still blocked after Leave")
		}
	}
	for r, want := range map[int][]float32{0: {11, 18, -27, 0.75}, 2: {10, 20, -30, 0.25}} {
		for i, w := range want {
			if bufs[r][i] != w {
				t.Fatalf("rank %d elem %d = %v, want %v", r, i, bufs[r][i], w)
			}
		}
	}
}

// TestReduceDepartedRoot: reducing into a member that left is a permanent
// error, not a hang.
func TestReduceDepartedRoot(t *testing.T) {
	g, err := NewGroup(3)
	if err != nil {
		t.Fatal(err)
	}
	g.Leave(0)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for _, r := range []int{1, 2} {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = g.Reduce(r, 0, []float32{1})
		}(r)
	}
	wg.Wait()
	for _, r := range []int{1, 2} {
		if !errors.Is(errs[r], ErrGroup) {
			t.Fatalf("rank %d: got %v, want ErrGroup", r, errs[r])
		}
	}
}
