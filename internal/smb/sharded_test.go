package smb

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"shmcaffe/internal/tensor"
)

// newSharded builds a sharded client over k fresh in-process stores.
func newSharded(t *testing.T, k int) (*ShardedClient, []*Store) {
	t.Helper()
	stores := make([]*Store, k)
	clients := make([]Client, k)
	for i := range stores {
		stores[i] = NewStore()
		clients[i] = NewLocalClient(stores[i])
	}
	sc, err := NewShardedClient(clients...)
	if err != nil {
		t.Fatal(err)
	}
	return sc, stores
}

func TestShardedValidation(t *testing.T) {
	if _, err := NewShardedClient(); err == nil {
		t.Fatal("expected error for no servers")
	}
	if _, err := NewShardedClient(nil); err == nil {
		t.Fatal("expected error for nil server")
	}
}

func TestShardedCreateSpreadsShards(t *testing.T) {
	sc, stores := newSharded(t, 3)
	if sc.Servers() != 3 {
		t.Fatalf("Servers = %d", sc.Servers())
	}
	if _, err := sc.Create("wg", 120); err != nil {
		t.Fatal(err)
	}
	// Every store holds exactly one shard of wg (plus the reverse dir on
	// store 0).
	for i, st := range stores {
		if _, err := st.Lookup(shardName("wg", i)); err != nil {
			t.Fatalf("store %d missing shard: %v", i, err)
		}
	}
	if _, err := stores[0].Lookup(shardName("wg", 1)); err == nil {
		t.Fatal("shard 1 must not live on store 0")
	}
}

func TestShardedReadWriteRoundTrip(t *testing.T) {
	sc, _ := newSharded(t, 3)
	key, err := sc.Create("seg", 100)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sc.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 100)
	for i := range src {
		src[i] = byte(i)
	}
	if err := sc.Write(h, 0, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 100)
	if err := sc.Read(h, 0, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if src[i] != dst[i] {
			t.Fatalf("byte %d: %d vs %d", i, src[i], dst[i])
		}
	}
	// Cross-shard partial range.
	part := make([]byte, 40)
	if err := sc.Read(h, 25, part); err != nil {
		t.Fatal(err)
	}
	for i := range part {
		if part[i] != byte(25+i) {
			t.Fatalf("partial read byte %d = %d", i, part[i])
		}
	}
	if err := sc.Read(h, 90, make([]byte, 20)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
}

func TestShardedKeyExchangeAcrossClients(t *testing.T) {
	// The master's sharded client creates; a second sharded client (the
	// worker) attaches using only the broadcast key — the Fig. 2 flow.
	stores := make([]*Store, 2)
	for i := range stores {
		stores[i] = NewStore()
	}
	master, err := NewShardedClient(NewLocalClient(stores[0]), NewLocalClient(stores[1]))
	if err != nil {
		t.Fatal(err)
	}
	workerC, err := NewShardedClient(NewLocalClient(stores[0]), NewLocalClient(stores[1]))
	if err != nil {
		t.Fatal(err)
	}
	key, err := master.Create("shared", 64)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := master.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := master.Write(hm, 0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	hw, err := workerC.Attach(key) // only the key crossed "MPI"
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{9, 8, 7}
	if err := workerC.Write(hw, 30, payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if err := master.Read(hm, 30, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 || got[2] != 7 {
		t.Fatalf("cross-client read %v", got)
	}
}

func TestShardedAccumulate(t *testing.T) {
	sc, _ := newSharded(t, 3)
	const elems = 30 // 120 bytes across 3 shards
	kw, err := sc.Create("wg", elems*4)
	if err != nil {
		t.Fatal(err)
	}
	kd, err := sc.Create("dw", elems*4)
	if err != nil {
		t.Fatal(err)
	}
	hw, _ := sc.Attach(kw)
	hd, _ := sc.Attach(kd)
	inc := make([]float32, elems)
	for i := range inc {
		inc[i] = float32(i)
	}
	if err := sc.Write(hd, 0, tensor.Float32Bytes(inc)); err != nil {
		t.Fatal(err)
	}
	if err := sc.Accumulate(hw, hd); err != nil {
		t.Fatal(err)
	}
	if err := sc.Accumulate(hw, hd); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, elems*4)
	if err := sc.Read(hw, 0, buf); err != nil {
		t.Fatal(err)
	}
	vals, _ := tensor.Float32FromBytes(buf)
	for i, v := range vals {
		if v != 2*float32(i) {
			t.Fatalf("wg[%d] = %v, want %v", i, v, 2*float32(i))
		}
	}
}

func TestShardedLookupDetachFree(t *testing.T) {
	sc, stores := newSharded(t, 2)
	key, err := sc.Create("seg", 40)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.Lookup("seg")
	if err != nil || got != key {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
	h, err := sc.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Detach(h); err != nil {
		t.Fatal(err)
	}
	if err := sc.Read(h, 0, make([]byte, 4)); !errors.Is(err, ErrUnknownHandle) {
		t.Fatalf("want ErrUnknownHandle after detach, got %v", err)
	}
	if err := sc.Free(key); err != nil {
		t.Fatal(err)
	}
	for i, st := range stores {
		if _, err := st.Lookup(shardName("seg", i)); !errors.Is(err, ErrUnknownSegment) {
			t.Fatalf("shard %d survived free: %v", i, err)
		}
	}
}

// TestShardedConcurrentAccumulate: the no-lost-update property holds across
// servers (each per-shard accumulate is exclusive on its own server).
func TestShardedConcurrentAccumulate(t *testing.T) {
	sc, _ := newSharded(t, 2)
	const elems = 32
	const workers = 6
	const rounds = 15
	kw, err := sc.Create("wg", elems*4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			hw, err := sc.Attach(kw)
			if err != nil {
				t.Error(err)
				return
			}
			names := SegmentNames{Job: "sh"}
			kd, err := sc.Create(names.Increment(w), elems*4)
			if err != nil {
				t.Error(err)
				return
			}
			hd, err := sc.Attach(kd)
			if err != nil {
				t.Error(err)
				return
			}
			ones := make([]float32, elems)
			for i := range ones {
				ones[i] = 1
			}
			for r := 0; r < rounds; r++ {
				if err := sc.Write(hd, 0, tensor.Float32Bytes(ones)); err != nil {
					t.Error(err)
					return
				}
				if err := sc.Accumulate(hw, hd); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	h, _ := sc.Attach(kw)
	buf := make([]byte, elems*4)
	if err := sc.Read(h, 0, buf); err != nil {
		t.Fatal(err)
	}
	vals, _ := tensor.Float32FromBytes(buf)
	for i, v := range vals {
		if v != workers*rounds {
			t.Fatalf("wg[%d] = %v, want %d", i, v, workers*rounds)
		}
	}
}

// TestShardedWithTCPBackends stripes across two real TCP servers.
func TestShardedWithTCPBackends(t *testing.T) {
	srv1 := startServer(t)
	srv2 := startServer(t)
	c1 := dialT(t, srv1)
	c2 := dialT(t, srv2)
	sc, err := NewShardedClient(c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	key, err := sc.Create("tcp", 64)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sc.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 64)
	for i := range src {
		src[i] = byte(64 - i)
	}
	if err := sc.Write(h, 0, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 64)
	if err := sc.Read(h, 0, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if src[i] != dst[i] {
			t.Fatalf("tcp sharded byte %d", i)
		}
	}
	// Both servers must actually hold data.
	if srv1.Store().Stats().BytesWrite == 0 || srv2.Store().Stats().BytesWrite == 0 {
		t.Fatal("striping did not reach both TCP servers")
	}
}

// TestShardedLargeShardsOverTCP: shards far past the old probing ceiling
// (2 MiB) attach over remote backing clients, and the data verbs and the
// push cover both of them. Attach learns each shard's size from one
// snapshot cut rather than from reads sized to fail.
func TestShardedLargeShardsOverTCP(t *testing.T) {
	const shardBytes = 3 << 20
	const n = 2 * shardBytes / 4
	srv1, srv2 := startServer(t), startServer(t)
	sc, err := NewShardedClient(dialT(t, srv1), dialT(t, srv2))
	if err != nil {
		t.Fatal(err)
	}
	kw, err := sc.Create("big/wg", n*4)
	if err != nil {
		t.Fatal(err)
	}
	kd, err := sc.Create("big/dw", n*4)
	if err != nil {
		t.Fatal(err)
	}
	wg, err := sc.Attach(kw)
	if err != nil {
		t.Fatalf("attach of 2 x %d-byte shards: %v", shardBytes, err)
	}
	dw, err := sc.Attach(kd)
	if err != nil {
		t.Fatal(err)
	}
	for i, srv := range []*Server{srv1, srv2} {
		if live := srv.Store().SnapCount(); live != 0 {
			t.Fatalf("server %d still pins %d snapshots after attach", i, live)
		}
	}

	pat := patternVec(n, 3)
	base := tensor.Float32Bytes(pat)
	if err := sc.Write(wg, 0, base); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, n*4)
	if err := sc.Read(wg, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, base) {
		t.Fatal("read back differs from what was written across the shards")
	}
	if err := sc.WriteAccumulate(wg, dw, tensor.Float32Bytes(onesVec(n))); err != nil {
		t.Fatal(err)
	}
	vals := readF32(t, sc, wg, n)
	for _, i := range []int{0, shardBytes/4 - 1, shardBytes / 4, n - 1} {
		if want := pat[i] + 1; vals[i] != want {
			t.Fatalf("wg[%d] = %v after the push, want %v", i, vals[i], want)
		}
	}
}
