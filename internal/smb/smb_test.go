package smb

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"shmcaffe/internal/tensor"
)

func TestStoreCreateAttachReadWrite(t *testing.T) {
	st := NewStore()
	key, err := st.Create("wg", 16)
	if err != nil {
		t.Fatal(err)
	}
	h, err := st.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Write(h, 4, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 4)
	if err := st.Read(h, 4, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 1 || dst[3] != 4 {
		t.Fatalf("read back %v", dst)
	}
	if info, err := st.Snapshot(h); err != nil || info.Size != 16 {
		t.Fatalf("snapshot size = %d, %v", info.Size, err)
	}
}

func TestStoreErrors(t *testing.T) {
	st := NewStore()
	if _, err := st.Create("x", 0); err == nil {
		t.Fatal("expected error for size 0")
	}
	key, _ := st.Create("x", 8)
	if _, err := st.Create("x", 8); !errors.Is(err, ErrSegmentExists) {
		t.Fatalf("want ErrSegmentExists, got %v", err)
	}
	if _, err := st.Lookup("nope"); !errors.Is(err, ErrUnknownSegment) {
		t.Fatalf("want ErrUnknownSegment, got %v", err)
	}
	if _, err := st.Attach(999); !errors.Is(err, ErrUnknownSegment) {
		t.Fatalf("want ErrUnknownSegment, got %v", err)
	}
	h, _ := st.Attach(key)
	if err := st.Read(h, 6, make([]byte, 4)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	if err := st.Write(h, -1, []byte{1}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	if err := st.Detach(h); err != nil {
		t.Fatal(err)
	}
	if err := st.Detach(h); !errors.Is(err, ErrUnknownHandle) {
		t.Fatalf("want ErrUnknownHandle, got %v", err)
	}
	if err := st.Read(h, 0, make([]byte, 1)); !errors.Is(err, ErrUnknownHandle) {
		t.Fatalf("read on detached handle: %v", err)
	}
}

func TestStoreFreeInvalidatesHandles(t *testing.T) {
	st := NewStore()
	key, _ := st.Create("x", 8)
	h, _ := st.Attach(key)
	if err := st.Free(key); err != nil {
		t.Fatal(err)
	}
	if err := st.Read(h, 0, make([]byte, 1)); !errors.Is(err, ErrUnknownHandle) {
		t.Fatalf("want ErrUnknownHandle after free, got %v", err)
	}
	if err := st.Free(key); !errors.Is(err, ErrUnknownSegment) {
		t.Fatalf("double free: %v", err)
	}
	// Name can be reused after free.
	if _, err := st.Create("x", 8); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulate(t *testing.T) {
	st := NewStore()
	kw, _ := st.Create("wg", 12)
	kd, _ := st.Create("dw", 12)
	hw, _ := st.Attach(kw)
	hd, _ := st.Attach(kd)

	if err := st.Write(hw, 0, tensor.Float32Bytes([]float32{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	if err := st.Write(hd, 0, tensor.Float32Bytes([]float32{10, 20, 30})); err != nil {
		t.Fatal(err)
	}
	if err := st.Accumulate(hw, hd); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 12)
	if err := st.Read(hw, 0, buf); err != nil {
		t.Fatal(err)
	}
	vals, _ := tensor.Float32FromBytes(buf)
	want := []float32{11, 22, 33}
	for i, w := range want {
		if vals[i] != w {
			t.Fatalf("accumulated[%d] = %v, want %v", i, vals[i], w)
		}
	}
}

func TestAccumulateErrors(t *testing.T) {
	st := NewStore()
	k1, _ := st.Create("a", 8)
	k2, _ := st.Create("b", 12)
	h1, _ := st.Attach(k1)
	h2, _ := st.Attach(k2)
	if err := st.Accumulate(h1, h2); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("want ErrSizeMismatch, got %v", err)
	}
	k3, _ := st.Create("c", 6) // not float32-aligned
	k4, _ := st.Create("d", 6)
	h3, _ := st.Attach(k3)
	h4, _ := st.Attach(k4)
	if err := st.Accumulate(h3, h4); !errors.Is(err, ErrNotFloatAligned) {
		t.Fatalf("want ErrNotFloatAligned, got %v", err)
	}
}

// TestConcurrentAccumulateLosesNothing: N workers each accumulate their own
// increment segment M times; the global sum must be exactly N·M·x. This is
// the lost-update safety property the exclusive server-side accumulation
// guarantees (paper Fig. 6 T.A3).
func TestConcurrentAccumulateLosesNothing(t *testing.T) {
	st := NewStore()
	const elems = 64
	const workers = 8
	const rounds = 25
	kw, _ := st.Create("wg", elems*4)
	hw, _ := st.Attach(kw)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			names := SegmentNames{Job: "t"}
			key, err := st.Create(names.Increment(w), elems*4)
			if err != nil {
				t.Error(err)
				return
			}
			hd, err := st.Attach(key)
			if err != nil {
				t.Error(err)
				return
			}
			inc := make([]float32, elems)
			for i := range inc {
				inc[i] = 1
			}
			for r := 0; r < rounds; r++ {
				if err := st.Write(hd, 0, tensor.Float32Bytes(inc)); err != nil {
					t.Error(err)
					return
				}
				if err := st.Accumulate(hw, hd); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	buf := make([]byte, elems*4)
	if err := st.Read(hw, 0, buf); err != nil {
		t.Fatal(err)
	}
	vals, _ := tensor.Float32FromBytes(buf)
	for i, v := range vals {
		if v != workers*rounds {
			t.Fatalf("wg[%d] = %v, want %d", i, v, workers*rounds)
		}
	}
}

func TestStats(t *testing.T) {
	st := NewStore()
	key, _ := st.Create("x", 8)
	h, _ := st.Attach(key)
	st.Write(h, 0, make([]byte, 8))
	st.Read(h, 0, make([]byte, 8))
	s := st.Stats()
	if s.Creates != 1 || s.Attaches != 1 || s.Writes != 1 || s.Reads != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.BytesRead != 8 || s.BytesWrite != 8 {
		t.Fatalf("byte stats %+v", s)
	}
	st.ResetStats()
	if st.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not clear")
	}
}

func TestLocalClientImplementsAPI(t *testing.T) {
	c := NewLocalClient(NewStore())
	key, err := c.Create("seg", 16)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.Lookup("seg"); err != nil || got != key {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
	h, err := c.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteInt64(c, h, 1, 42); err != nil {
		t.Fatal(err)
	}
	v, err := ReadInt64(c, h, 1)
	if err != nil || v != 42 {
		t.Fatalf("ReadInt64 = %d, %v", v, err)
	}
	slots := make([]int64, 2)
	if err := ReadInt64SlotsAt(c, h, 0, slots); err != nil || slots[0] != 0 || slots[1] != 42 {
		t.Fatalf("ReadInt64SlotsAt = %v, %v", slots, err)
	}
	if err := c.Detach(h); err != nil {
		t.Fatal(err)
	}
	if err := c.Free(key); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentNames(t *testing.T) {
	n := SegmentNames{Job: "job1"}
	if n.Global() != "job1/wg" {
		t.Fatal(n.Global())
	}
	if n.Increment(3) != "job1/dw/3" {
		t.Fatal(n.Increment(3))
	}
	if n.Control() != "job1/ctl" {
		t.Fatal(n.Control())
	}
}

// Property: Write then Read round-trips arbitrary byte payloads at
// arbitrary in-range offsets.
func TestWriteReadProperty(t *testing.T) {
	st := NewStore()
	const size = 256
	key, _ := st.Create("p", size)
	h, _ := st.Attach(key)
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 1 + rng.Intn(size)
		off := rng.Intn(size - n + 1)
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(rng.Uint64())
		}
		if err := st.Write(h, off, src); err != nil {
			return false
		}
		dst := make([]byte, n)
		if err := st.Read(h, off, dst); err != nil {
			return false
		}
		for i := range src {
			if src[i] != dst[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
