package nccl

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"shmcaffe/internal/tensor"
)

// runGroup runs fn concurrently for every rank.
func runGroup(t *testing.T, g *Group, fn func(rank int)) {
	t.Helper()
	var wg sync.WaitGroup
	for r := 0; r < g.Size(); r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(r)
		}()
	}
	wg.Wait()
}

// allReduceSum is the ring without AllReduceMean's division, so tests can
// check exact sums.
func (g *Group) allReduceSum(rank int, data []float32) error {
	_, err := g.allReduce(rank, data)
	return err
}

func TestNewGroupValidation(t *testing.T) {
	if _, err := NewGroup(0); !errors.Is(err, ErrGroup) {
		t.Fatalf("want ErrGroup, got %v", err)
	}
	g, err := NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 4 {
		t.Fatalf("Size = %d", g.Size())
	}
}

func TestChunkBoundsCoverExactly(t *testing.T) {
	for _, tc := range []struct{ length, n int }{
		{10, 3}, {7, 7}, {5, 8}, {100, 4}, {1, 2},
	} {
		covered := 0
		prevHi := 0
		for i := 0; i < tc.n; i++ {
			lo, hi := chunkBounds(tc.length, tc.n, i)
			if lo != prevHi {
				t.Fatalf("length %d n %d chunk %d starts at %d, want %d", tc.length, tc.n, i, lo, prevHi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.length {
			t.Fatalf("length %d n %d covered %d", tc.length, tc.n, covered)
		}
	}
}

func TestAllReduceSumsAcrossDevices(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		g, err := NewGroup(n)
		if err != nil {
			t.Fatal(err)
		}
		const length = 37 // deliberately not divisible by group sizes
		bufs := make([][]float32, n)
		var want []float32
		want = make([]float32, length)
		for r := 0; r < n; r++ {
			bufs[r] = make([]float32, length)
			for i := range bufs[r] {
				bufs[r][i] = float32(r*100 + i)
				want[i] += bufs[r][i]
			}
		}
		runGroup(t, g, func(rank int) {
			if err := g.allReduceSum(rank, bufs[rank]); err != nil {
				t.Error(err)
			}
		})
		for r := 0; r < n; r++ {
			for i := range want {
				if math.Abs(float64(bufs[r][i]-want[i])) > 1e-3 {
					t.Fatalf("n=%d rank %d elem %d = %v, want %v", n, r, i, bufs[r][i], want[i])
				}
			}
		}
	}
}

func TestAllReduceMean(t *testing.T) {
	g, _ := NewGroup(4)
	bufs := make([][]float32, 4)
	for r := range bufs {
		bufs[r] = []float32{float32(r + 1), 8}
	}
	runGroup(t, g, func(rank int) {
		if err := g.AllReduceMean(rank, bufs[rank]); err != nil {
			t.Error(err)
		}
	})
	for r := range bufs {
		if bufs[r][0] != 2.5 || bufs[r][1] != 8 {
			t.Fatalf("rank %d mean %v", r, bufs[r])
		}
	}
}

func TestBroadcast(t *testing.T) {
	g, _ := NewGroup(3)
	bufs := [][]float32{{0, 0}, {5, 6}, {0, 0}}
	runGroup(t, g, func(rank int) {
		if err := g.Broadcast(rank, 1, bufs[rank]); err != nil {
			t.Error(err)
		}
	})
	for r := range bufs {
		if bufs[r][0] != 5 || bufs[r][1] != 6 {
			t.Fatalf("rank %d broadcast %v", r, bufs[r])
		}
	}
}

func TestBroadcastRootError(t *testing.T) {
	g, _ := NewGroup(2)
	if err := g.Broadcast(0, 5, []float32{1}); !errors.Is(err, ErrGroup) {
		t.Fatalf("want ErrGroup, got %v", err)
	}
}

func TestSingleDeviceShortCircuit(t *testing.T) {
	g, _ := NewGroup(1)
	data := []float32{1, 2}
	if err := g.allReduceSum(0, data); err != nil {
		t.Fatal(err)
	}
	if data[0] != 1 || data[1] != 2 {
		t.Fatalf("single-device allreduce changed data: %v", data)
	}
	if err := g.allReduceSum(1, data); !errors.Is(err, ErrGroup) {
		t.Fatalf("want ErrGroup for bad rank, got %v", err)
	}
}

// TestAllReduceRepeatedRounds: the communicator is reusable, like NCCL.
func TestAllReduceRepeatedRounds(t *testing.T) {
	g, _ := NewGroup(3)
	var mu sync.Mutex
	bad := false
	runGroup(t, g, func(rank int) {
		for round := 1; round <= 10; round++ {
			data := []float32{float32(round)}
			if err := g.allReduceSum(rank, data); err != nil {
				t.Error(err)
				return
			}
			if data[0] != float32(3*round) {
				mu.Lock()
				bad = true
				mu.Unlock()
			}
		}
	})
	if bad {
		t.Fatal("round results wrong")
	}
}

// Property: ring allreduce equals the direct sum for random sizes and
// group sizes.
func TestAllReduceMatchesDirectSumProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 2 + rng.Intn(6)
		length := 1 + rng.Intn(64)
		g, err := NewGroup(n)
		if err != nil {
			return false
		}
		bufs := make([][]float32, n)
		want := make([]float64, length)
		for r := 0; r < n; r++ {
			bufs[r] = make([]float32, length)
			for i := range bufs[r] {
				bufs[r][i] = float32(rng.NormFloat64())
				want[i] += float64(bufs[r][i])
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, n)
		for r := 0; r < n; r++ {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[r] = g.allReduceSum(r, bufs[r])
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return false
			}
		}
		for r := 0; r < n; r++ {
			for i := range want {
				if math.Abs(float64(bufs[r][i])-want[i]) > 1e-3*(1+math.Abs(want[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAbortUnblocksWaiters: Abort wakes devices parked in a collective so a
// failed member does not deadlock its group.
func TestAbortUnblocksWaiters(t *testing.T) {
	g, _ := NewGroup(2)
	errCh := make(chan error, 1)
	go func() {
		errCh <- g.allReduceSum(0, []float32{1, 2}) // waits forever for rank 1
	}()
	g.Abort()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("want ErrAborted, got %v", err)
		}
	case <-timeAfter():
		t.Fatal("abort did not unblock the waiter")
	}
	// Post-abort collectives fail immediately.
	if err := g.Broadcast(1, 0, []float32{1, 2}); !errors.Is(err, ErrAborted) {
		t.Fatalf("post-abort broadcast: %v", err)
	}
}

func timeAfter() <-chan time.Time { return time.After(2 * time.Second) }

// TestLengthMismatchAbortsGroup: a bad buffer poisons the collective, the
// ring allreduce or the reduce alike: every member returns an error instead
// of hanging, and later collectives fail at once.
func TestLengthMismatchAbortsGroup(t *testing.T) {
	for name, collective := range map[string]func(g *Group, rank int, data []float32) error{
		"allreduce": (*Group).allReduceSum,
		"reduce":    func(g *Group, rank int, data []float32) error { return g.Reduce(rank, 0, data) },
	} {
		g, _ := NewGroup(3)
		errs := make([]error, 3)
		lens := []int{4, 4, 5}
		runGroup(t, g, func(rank int) {
			errs[rank] = collective(g, rank, make([]float32, lens[rank]))
		})
		sawGroup := false
		for r, err := range errs {
			if err == nil {
				t.Fatalf("%s: rank %d: mismatched collective returned nil", name, r)
			}
			sawGroup = sawGroup || errors.Is(err, ErrGroup)
		}
		if !sawGroup {
			t.Fatalf("%s: no member reported the root cause: %v", name, errs)
		}
		if err := g.Broadcast(0, 0, []float32{1}); !errors.Is(err, ErrAborted) {
			t.Fatalf("%s: later broadcast: want ErrAborted, got %v", name, err)
		}
	}
}

// reduceInputs returns n buffers of mixed-sign values spanning eleven
// decades, so the sum's bits depend on its order, and element 0 −0 on every
// rank.
func reduceInputs(n, length int, seed uint64) [][]float32 {
	rng := tensor.NewRNG(seed)
	negZero := float32(math.Copysign(0, -1))
	bufs := make([][]float32, n)
	for r := range bufs {
		bufs[r] = make([]float32, length)
		for i := range bufs[r] {
			bufs[r][i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-3)))
		}
		bufs[r][0] = negZero
	}
	return bufs
}

// TestReduceRankOrderBits: the root ends with the serial rank-order sum
// from +0, bit for bit, and every other buffer is untouched.
func TestReduceRankOrderBits(t *testing.T) {
	const length = 37
	for n := 1; n <= 5; n++ {
		for _, root := range []int{0, n - 1} {
			bufs := reduceInputs(n, length, uint64(10*n+root))
			want := make([]float32, length)
			for r := 0; r < n; r++ {
				for i, x := range bufs[r] {
					want[i] += x
				}
			}
			orig := make([][]float32, n)
			for r := range bufs {
				orig[r] = append([]float32(nil), bufs[r]...)
			}
			g, err := NewGroup(n)
			if err != nil {
				t.Fatal(err)
			}
			runGroup(t, g, func(rank int) {
				if err := g.Reduce(rank, root, bufs[rank]); err != nil {
					t.Error(err)
				}
			})
			for r := 0; r < n; r++ {
				exp := orig[r]
				if r == root {
					exp = want
				}
				for i := range exp {
					if math.Float32bits(bufs[r][i]) != math.Float32bits(exp[i]) {
						t.Fatalf("n=%d root %d: rank %d elem %d = %v (%#x), want %v (%#x)",
							n, root, r, i, bufs[r][i], math.Float32bits(bufs[r][i]), exp[i], math.Float32bits(exp[i]))
					}
				}
			}
			if math.Signbit(float64(bufs[root][0])) {
				t.Fatalf("n=%d root %d: a sum of −0s is −0, want +0 (the sum starts at +0)", n, root)
			}
		}
	}
}

// TestReduceArgumentErrors: an out-of-range rank or root is ErrGroup before
// anything is published.
func TestReduceArgumentErrors(t *testing.T) {
	g, _ := NewGroup(2)
	for _, tc := range []struct{ rank, root int }{{-1, 0}, {2, 0}, {0, -1}, {0, 2}} {
		if err := g.Reduce(tc.rank, tc.root, []float32{1}); !errors.Is(err, ErrGroup) {
			t.Fatalf("Reduce(%d, %d): want ErrGroup, got %v", tc.rank, tc.root, err)
		}
	}
}
