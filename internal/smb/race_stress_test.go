package smb

import (
	"fmt"
	"sync"
	"testing"

	"shmcaffe/internal/tensor"
)

// Race-stress suite: hammer every SMB verb from many goroutines at once.
// Run under -race (scripts/check.sh tier 2) this turns the store's
// concurrency contract — overlapping Reads, per-segment Write exclusion,
// globally exclusive Accumulate, and a mutating handle table — into a
// machine-checked property instead of a comment. The final assertion also
// proves the paper's no-lost-increments guarantee (Fig. 6 T.A3): with
// every Accumulate exclusive, the global weight must equal the exact sum
// of all pushed increments.

const (
	stressWorkers = 8
	stressIters   = 40
	stressVals    = 64
)

// stressClient drives one Client as stressWorkers concurrent SEASGD-style
// workers plus a reader/attacher goroutine per worker.
func stressClient(t *testing.T, client Client) {
	t.Helper()

	gKey, err := client.Create("stress/wg", stressVals*4)
	if err != nil {
		t.Fatalf("create global: %v", err)
	}

	ones := tensor.Float32Bytes(onesVec(stressVals))
	var wg sync.WaitGroup
	errCh := make(chan error, 2*stressWorkers)
	for w := 0; w < stressWorkers; w++ {
		w := w
		// Writer: private increment segment, accumulate into the global.
		wg.Add(1)
		go func() {
			defer wg.Done()
			errCh <- func() error {
				hg, err := client.Attach(gKey)
				if err != nil {
					return fmt.Errorf("worker %d attach: %w", w, err)
				}
				dKey, err := client.Create(fmt.Sprintf("stress/dw%d", w), stressVals*4)
				if err != nil {
					return fmt.Errorf("worker %d create: %w", w, err)
				}
				hd, err := client.Attach(dKey)
				if err != nil {
					return fmt.Errorf("worker %d attach dw: %w", w, err)
				}
				for i := 0; i < stressIters; i++ {
					if err := client.Write(hd, 0, ones); err != nil {
						return fmt.Errorf("worker %d write: %w", w, err)
					}
					if err := client.Accumulate(hg, hd); err != nil {
						return fmt.Errorf("worker %d accumulate: %w", w, err)
					}
				}
				if err := client.Detach(hd); err != nil {
					return fmt.Errorf("worker %d detach: %w", w, err)
				}
				return client.Detach(hg)
			}()
		}()
		// Reader: churns Attach/Read/Detach against the same segment.
		wg.Add(1)
		go func() {
			defer wg.Done()
			errCh <- func() error {
				buf := make([]byte, stressVals*4)
				for i := 0; i < stressIters; i++ {
					h, err := client.Attach(gKey)
					if err != nil {
						return fmt.Errorf("reader %d attach: %w", w, err)
					}
					if err := client.Read(h, 0, buf); err != nil {
						return fmt.Errorf("reader %d read: %w", w, err)
					}
					if err := client.Detach(h); err != nil {
						return fmt.Errorf("reader %d detach: %w", w, err)
					}
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	// No lost increments: exclusive Accumulate means the global is exactly
	// workers*iters in every slot (exact in float32 at these magnitudes).
	h, err := client.Attach(gKey)
	if err != nil {
		t.Fatalf("final attach: %v", err)
	}
	buf := make([]byte, stressVals*4)
	if err := client.Read(h, 0, buf); err != nil {
		t.Fatalf("final read: %v", err)
	}
	got, err := tensor.Float32FromBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	want := float32(stressWorkers * stressIters)
	for i, v := range got {
		if v != want {
			t.Fatalf("global[%d] = %v, want %v (lost increments)", i, v, want)
		}
	}
}

func onesVec(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// TestStoreRaceStress hammers the in-process Store.
func TestStoreRaceStress(t *testing.T) {
	stressClient(t, NewLocalClient(NewStore()))
}

// TestServerRaceStress hammers the TCP transport end to end: one server,
// one StreamClient per logical worker, all verbs concurrent.
func TestServerRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("network stress in -short mode")
	}
	store := NewStore()
	srv, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve() //lint:ignore goleak joined by srv.Close via the server's WaitGroup

	gKey, err := store.Create("stress/wg", stressVals*4)
	if err != nil {
		t.Fatal(err)
	}
	ones := tensor.Float32Bytes(onesVec(stressVals))

	var wg sync.WaitGroup
	errCh := make(chan error, stressWorkers)
	for w := 0; w < stressWorkers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			errCh <- func() error {
				client, err := Dial(srv.Addr())
				if err != nil {
					return err
				}
				defer client.Close()
				hg, err := client.Attach(gKey)
				if err != nil {
					return err
				}
				dKey, err := client.Create(fmt.Sprintf("stress/tcp%d", w), stressVals*4)
				if err != nil {
					return err
				}
				hd, err := client.Attach(dKey)
				if err != nil {
					return err
				}
				buf := make([]byte, stressVals*4)
				for i := 0; i < stressIters; i++ {
					if err := client.Write(hd, 0, ones); err != nil {
						return err
					}
					if err := client.Accumulate(hg, hd); err != nil {
						return err
					}
					if err := client.Read(hg, 0, buf); err != nil {
						return err
					}
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	h, err := store.Attach(gKey)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, stressVals*4)
	if err := store.Read(h, 0, buf); err != nil {
		t.Fatal(err)
	}
	got, err := tensor.Float32FromBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	want := float32(stressWorkers * stressIters)
	for i, v := range got {
		if v != want {
			t.Fatalf("global[%d] = %v, want %v (lost increments)", i, v, want)
		}
	}
}
