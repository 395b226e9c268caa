package core

import (
	"errors"
	"sync"
	"testing"

	"shmcaffe/internal/smb"
)

// setupPair bootstraps a 2-rank buffer family for direct JobBuffers tests.
func setupPair(t *testing.T, job string) (store *smb.Store, bufs []*JobBuffers) {
	t.Helper()
	store = smb.NewStore()
	bufs = make([]*JobBuffers, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seed []float32
			if r == 0 {
				seed = make([]float32, 8)
				for i := range seed {
					seed[i] = float32(i)
				}
			}
			bufs[r], errs[r] = SetupBuffersPolling(smb.NewLocalClient(store), job, r, 2, 8, seed, BootstrapOptions{})
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return store, bufs
}

func TestJobBuffersReadPushRoundTrip(t *testing.T) {
	_, bufs := setupPair(t, "jb")
	global := make([]float32, 8)
	if err := bufs[1].ReadGlobal(global); err != nil {
		t.Fatal(err)
	}
	if global[7] != 7 {
		t.Fatalf("seeded global %v", global)
	}
	delta := make([]float32, 8)
	for i := range delta {
		delta[i] = 0.5
	}
	if err := bufs[1].PushIncrement(delta); err != nil {
		t.Fatal(err)
	}
	if err := bufs[0].ReadGlobal(global); err != nil {
		t.Fatal(err)
	}
	if global[0] != 0.5 || global[7] != 7.5 {
		t.Fatalf("after push %v", global)
	}
}

func TestJobBuffersSizeErrors(t *testing.T) {
	_, bufs := setupPair(t, "jb2")
	if err := bufs[0].ReadGlobal(make([]float32, 4)); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
	if err := bufs[0].PushIncrement(make([]float32, 4)); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
}

func TestJobBuffersAccessors(t *testing.T) {
	_, bufs := setupPair(t, "jb3")
	if bufs[0].Elems() != 8 || bufs[0].Rank() != 0 || bufs[0].WorldSize() != 2 {
		t.Fatalf("accessors %d %d %d", bufs[0].Elems(), bufs[0].Rank(), bufs[0].WorldSize())
	}
	if bufs[1].Rank() != 1 {
		t.Fatal("rank 1 accessor")
	}
}

func TestJobBuffersStopFlagAndProgress(t *testing.T) {
	_, bufs := setupPair(t, "jb4")
	stop, err := bufs[0].StopRequested()
	if err != nil || stop {
		t.Fatalf("initial stop %v %v", stop, err)
	}
	if err := bufs[1].ReportProgress(17); err != nil {
		t.Fatal(err)
	}
	p, err := bufs[0].Progress()
	if err != nil {
		t.Fatal(err)
	}
	if p[1] != 17 || p[0] != 0 {
		t.Fatalf("progress %v", p)
	}
	if err := bufs[0].SignalStop(); err != nil {
		t.Fatal(err)
	}
	stop, err = bufs[1].StopRequested()
	if err != nil || !stop {
		t.Fatalf("stop after signal %v %v", stop, err)
	}
}

func TestJobBuffersClose(t *testing.T) {
	_, bufs := setupPair(t, "jb5")
	if err := bufs[0].Close(); err != nil {
		t.Fatal(err)
	}
	// After close, handles are detached: operations fail.
	if err := bufs[0].ReadGlobal(make([]float32, 8)); err == nil {
		t.Fatal("expected error after close")
	}
	// Closing twice surfaces the detach error but does not panic.
	if err := bufs[0].Close(); err == nil {
		t.Fatal("expected error on double close")
	}
}

func TestSetupBuffersValidation(t *testing.T) {
	client := smb.NewLocalClient(smb.NewStore())
	if _, err := SetupBuffersPolling(client, "x", 0, 1, 0, nil, BootstrapOptions{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig for 0 elems, got %v", err)
	}
	if _, err := SetupBuffersPolling(client, "x", 0, 1, 8, []float32{1}, BootstrapOptions{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig for short seed, got %v", err)
	}
}
