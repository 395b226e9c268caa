package mpi

import (
	"errors"
	"math"
	"sync"
	"testing"
)

// runRanks runs fn on each of the world's n ranks concurrently and waits
// for completion.
func runRanks(t *testing.T, w *World, n int, fn func(r int, c *Comm)) {
	t.Helper()
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		c, err := w.Comm(r)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int, c *Comm) {
			defer wg.Done()
			fn(r, c)
		}(r, c)
	}
	wg.Wait()
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Fatal("expected error for empty world")
	}
	w, err := NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Comm(2); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Comm(3); !errors.Is(err, ErrRank) {
		t.Fatalf("want ErrRank, got %v", err)
	}
}

func TestBcast(t *testing.T) {
	w, _ := NewWorld(4)
	var mu sync.Mutex
	results := make(map[int][]byte)
	runRanks(t, w, 4, func(r int, c *Comm) {
		var buf []byte
		if r == 2 {
			buf = []byte("shm-key-42")
		}
		out, err := c.Bcast(2, buf)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		results[r] = out
		mu.Unlock()
	})
	for r, out := range results {
		if string(out) != "shm-key-42" {
			t.Fatalf("rank %d got %q", r, out)
		}
	}
}

func TestBcastRootError(t *testing.T) {
	w, _ := NewWorld(1)
	c, _ := w.Comm(0)
	if _, err := c.Bcast(5, nil); !errors.Is(err, ErrRank) {
		t.Fatalf("want ErrRank, got %v", err)
	}
}

func TestGather(t *testing.T) {
	w, _ := NewWorld(3)
	var rootGot [][]byte
	runRanks(t, w, 3, func(r int, c *Comm) {
		out, err := c.Gather(0, []byte{byte(r * 10)})
		if err != nil {
			t.Error(err)
			return
		}
		if r == 0 {
			rootGot = out
		} else if out != nil {
			t.Errorf("non-root rank %d received gather data", r)
		}
	})
	if len(rootGot) != 3 {
		t.Fatalf("root gathered %d buffers", len(rootGot))
	}
	for r, buf := range rootGot {
		if buf[0] != byte(r*10) {
			t.Fatalf("gather[%d] = %v", r, buf)
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	w, _ := NewWorld(4)
	var mu sync.Mutex
	results := make(map[int][]float32)
	runRanks(t, w, 4, func(r int, c *Comm) {
		data := []float32{float32(r), 1, float32(r * r)}
		if err := c.AllreduceSum(data); err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		results[r] = data
		mu.Unlock()
	})
	want := []float32{0 + 1 + 2 + 3, 4, 0 + 1 + 4 + 9}
	for r, data := range results {
		for i, wv := range want {
			if math.Abs(float64(data[i]-wv)) > 1e-6 {
				t.Fatalf("rank %d allreduce[%d] = %v, want %v", r, i, data[i], wv)
			}
		}
	}
}

// TestAllreduceRepeated: collectives are reusable back to back, and every
// round is independent.
func TestAllreduceRepeated(t *testing.T) {
	w, _ := NewWorld(3)
	runRanks(t, w, 3, func(r int, c *Comm) {
		for round := 1; round <= 5; round++ {
			data := []float32{float32(round)}
			if err := c.AllreduceSum(data); err != nil {
				t.Error(err)
				return
			}
			if data[0] != float32(3*round) {
				t.Errorf("round %d: got %v, want %d", round, data[0], 3*round)
			}
		}
	})
}

// TestCollectivesDeterministicAcrossRanks: the float64 accumulator makes the
// allreduce result bit-identical on all ranks — required for SSGD replicas
// to stay in lockstep.
func TestAllreduceBitIdentical(t *testing.T) {
	w, _ := NewWorld(8)
	var mu sync.Mutex
	var results [][]float32
	runRanks(t, w, 8, func(r int, c *Comm) {
		data := []float32{0.1 * float32(r), -0.3, 1e-7}
		if err := c.AllreduceSum(data); err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		results = append(results, data)
		mu.Unlock()
	})
	for i := 1; i < len(results); i++ {
		for j := range results[0] {
			if results[i][j] != results[0][j] {
				t.Fatalf("rank results differ: %v vs %v", results[i], results[0])
			}
		}
	}
}
