package smb

import (
	"fmt"
	"sync"
	"time"
)

// ShardedClient stripes every segment across several SMB servers — the
// paper's stated future work ("we have a plan to improve the performance of
// the SMB framework by using multiple SMB servers", Sec. V). A segment of
// size S becomes k per-server shards of ≈S/k bytes; Read/Write/Accumulate
// fan out to all servers concurrently, multiplying the aggregate bandwidth
// and spreading the exclusive accumulate load.
//
// Key exchange still works across workers: the synthetic SHM key returned
// by Create is the shard-0 key, and a reverse-directory segment on server 0
// (named "~rev/<key>") records the segment name so any client can resolve
// an attached key back to the per-server shard names using only the base
// SMB verbs.
type ShardedClient struct {
	clients []Client

	mu         sync.Mutex
	nextHandle Handle                    // guarded by mu
	handles    map[Handle]*shardedHandle // guarded by mu
	nextSnap   SnapID                    // guarded by mu
	snaps      map[SnapID]*shardedSnap   // guarded by mu
	inst       *clientInstruments        // optional fan-out timing, guarded by mu
}

type shardedHandle struct {
	name  string
	subs  []Handle // one per server
	sizes []int    // shard byte sizes
	offs  []int    // shard start offsets in the logical segment
	total int
}

var _ Client = (*ShardedClient)(nil)

// NewShardedClient returns a client striping across the given per-server
// clients. At least one server is required.
func NewShardedClient(clients ...Client) (*ShardedClient, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("smb: sharded client needs at least one server")
	}
	for i, c := range clients {
		if c == nil {
			return nil, fmt.Errorf("smb: sharded client server %d is nil", i)
		}
	}
	cp := make([]Client, len(clients))
	copy(cp, clients)
	return &ShardedClient{
		clients: cp,
		handles: make(map[Handle]*shardedHandle),
	}, nil
}

// Servers returns the number of backing servers.
func (s *ShardedClient) Servers() int { return len(s.clients) }

// shardName returns the per-server segment name of shard i.
func shardName(name string, i int) string { return fmt.Sprintf("%s#%d", name, i) }

// revName returns the reverse-directory segment name for a shard-0 key.
func revName(key SHMKey) string { return fmt.Sprintf("~rev/%d", uint64(key)) }

// shardSizes splits size into len(clients) 4-byte-aligned chunks covering
// it exactly (the last shard absorbs the remainder).
func (s *ShardedClient) shardSizes(size int) []int {
	k := len(s.clients)
	base := size / k
	base -= base % 4 // keep float32 alignment for Accumulate
	sizes := make([]int, k)
	used := 0
	for i := 0; i < k-1; i++ {
		sizes[i] = base
		used += base
	}
	sizes[k-1] = size - used
	return sizes
}

// Create implements Client: one shard per server plus the reverse-directory
// entry on server 0.
func (s *ShardedClient) Create(name string, size int) (SHMKey, error) {
	if size <= 0 {
		return 0, fmt.Errorf("smb: sharded create %q size %d", name, size)
	}
	sizes := s.shardSizes(size)
	var key0 SHMKey
	for i, c := range s.clients {
		if sizes[i] == 0 {
			// Tiny segment: park a minimal shard so attach stays uniform.
			sizes[i] = 4
		}
		key, err := c.Create(shardName(name, i), sizes[i])
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", i, err)
		}
		if i == 0 {
			key0 = key
		}
	}
	// Record key0 → name so other clients can Attach by key.
	rev, err := s.clients[0].Create(revName(key0), len(name))
	if err != nil {
		return 0, fmt.Errorf("reverse dir: %w", err)
	}
	h, err := s.clients[0].Attach(rev)
	if err != nil {
		return 0, err
	}
	if err := s.clients[0].Write(h, 0, []byte(name)); err != nil {
		return 0, err
	}
	if err := s.clients[0].Detach(h); err != nil {
		return 0, err
	}
	return key0, nil
}

// Lookup implements Client: resolves the logical name to its shard-0 key.
func (s *ShardedClient) Lookup(name string) (SHMKey, error) {
	return s.clients[0].Lookup(shardName(name, 0))
}

// resolveName maps a shard-0 key back to the logical segment name.
func (s *ShardedClient) resolveName(key SHMKey) (string, error) {
	revKey, err := s.clients[0].Lookup(revName(key))
	if err != nil {
		return "", fmt.Errorf("resolve key %d: %w", key, err)
	}
	h, err := s.clients[0].Attach(revKey)
	if err != nil {
		return "", err
	}
	defer s.clients[0].Detach(h)
	// The directory segment holds exactly the name bytes.
	size, err := snapSize(s.clients[0], h)
	if err != nil {
		return "", err
	}
	buf, bp := getScratch(size)
	defer putScratch(bp)
	if err := s.clients[0].Read(h, 0, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// snapSize learns the byte size of the segment behind h from the one verb
// that reports it: a snapshot cut, released at once.
func snapSize(c Client, h Handle) (int, error) {
	info, err := c.Snapshot(h)
	if err != nil {
		return 0, err
	}
	return info.Size, c.SnapRelease(info.ID)
}

// Attach implements Client: resolves the key, attaches every shard.
func (s *ShardedClient) Attach(key SHMKey) (Handle, error) {
	name, err := s.resolveName(key)
	if err != nil {
		return 0, err
	}
	return s.attachByName(name)
}

func (s *ShardedClient) attachByName(name string) (Handle, error) {
	sh := &shardedHandle{name: name}
	off := 0
	for i, c := range s.clients {
		key, err := c.Lookup(shardName(name, i))
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", i, err)
		}
		sub, err := c.Attach(key)
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", i, err)
		}
		size, err := snapSize(c, sub)
		if err != nil {
			return 0, err
		}
		sh.subs = append(sh.subs, sub)
		sh.sizes = append(sh.sizes, size)
		sh.offs = append(sh.offs, off)
		off += size
	}
	sh.total = off
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextHandle++
	h := s.nextHandle
	s.handles[h] = sh
	return h, nil
}

// instruments snapshots the optional timing instruments under mu.
func (s *ShardedClient) instruments() *clientInstruments {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inst
}

func (s *ShardedClient) handle(h Handle) (*shardedHandle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, ok := s.handles[h]
	if !ok {
		return nil, fmt.Errorf("sharded handle %d: %w", h, ErrUnknownHandle)
	}
	return sh, nil
}

// Detach implements Client.
func (s *ShardedClient) Detach(h Handle) error {
	sh, err := s.handle(h)
	if err != nil {
		return err
	}
	var firstErr error
	for i, c := range s.clients {
		if err := c.Detach(sh.subs[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.mu.Lock()
	delete(s.handles, h)
	s.mu.Unlock()
	return firstErr
}

// Free implements Client: destroys every shard and the directory entry.
func (s *ShardedClient) Free(key SHMKey) error {
	name, err := s.resolveName(key)
	if err != nil {
		return err
	}
	var firstErr error
	for i, c := range s.clients {
		k, err := c.Lookup(shardName(name, i))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if err := c.Free(k); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if revKey, err := s.clients[0].Lookup(revName(key)); err == nil {
		if err := s.clients[0].Free(revKey); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// forRange visits every shard overlapped by [off, off+n), calling fn with
// the shard index, the offset inside the shard, and the slice of buf
// covering that shard's portion.
func (sh *shardedHandle) forRange(off int, buf []byte, fn func(i, shardOff int, part []byte) error) error {
	if off < 0 || off+len(buf) > sh.total {
		return fmt.Errorf("sharded range [%d,%d) of %d: %w", off, off+len(buf), sh.total, ErrOutOfRange)
	}
	for i := range sh.subs {
		lo, hi := sh.offs[i], sh.offs[i]+sh.sizes[i]
		if hi <= off || lo >= off+len(buf) {
			continue
		}
		from := off
		if lo > from {
			from = lo
		}
		to := off + len(buf)
		if hi < to {
			to = hi
		}
		if err := fn(i, from-lo, buf[from-off:to-off]); err != nil {
			return err
		}
	}
	return nil
}

// Read implements Client: fan-out reads, concurrently across servers.
func (s *ShardedClient) Read(h Handle, off int, dst []byte) error {
	sh, err := s.handle(h)
	if err != nil {
		return err
	}
	ins := s.instruments()
	var t0 time.Time
	if ins != nil {
		t0 = time.Now()
	}
	err = s.parallelRange(sh, off, dst, func(i, shardOff int, part []byte) error {
		return s.clients[i].Read(sh.subs[i], shardOff, part)
	})
	if err == nil && ins != nil {
		ins.read.ObserveSeconds(time.Since(t0).Nanoseconds())
	}
	return err
}

// Write implements Client: fan-out writes, concurrently across servers.
func (s *ShardedClient) Write(h Handle, off int, src []byte) error {
	sh, err := s.handle(h)
	if err != nil {
		return err
	}
	ins := s.instruments()
	var t0 time.Time
	if ins != nil {
		t0 = time.Now()
	}
	err = s.parallelRange(sh, off, src, func(i, shardOff int, part []byte) error {
		return s.clients[i].Write(sh.subs[i], shardOff, part)
	})
	if err == nil && ins != nil {
		ins.write.ObserveSeconds(time.Since(t0).Nanoseconds())
	}
	return err
}

// parallelRange runs the per-shard operation concurrently and joins errors.
func (s *ShardedClient) parallelRange(sh *shardedHandle, off int, buf []byte,
	op func(i, shardOff int, part []byte) error) error {

	type job struct {
		i        int
		shardOff int
		part     []byte
	}
	var jobs []job
	if err := sh.forRange(off, buf, func(i, shardOff int, part []byte) error {
		jobs = append(jobs, job{i, shardOff, part})
		return nil
	}); err != nil {
		return err
	}
	if len(jobs) == 1 {
		return op(jobs[0].i, jobs[0].shardOff, jobs[0].part)
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for j, jb := range jobs {
		j, jb := j, jb
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[j] = op(jb.i, jb.shardOff, jb.part)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Accumulate implements Client: per-server shard accumulates, concurrent.
// Both handles must stripe identically (same total size).
func (s *ShardedClient) Accumulate(dst, src Handle) error {
	dsh, err := s.handle(dst)
	if err != nil {
		return err
	}
	ssh, err := s.handle(src)
	if err != nil {
		return err
	}
	if dsh.total != ssh.total {
		return fmt.Errorf("sharded accumulate %d vs %d bytes: %w", dsh.total, ssh.total, ErrSizeMismatch)
	}
	ins := s.instruments()
	var t0 time.Time
	if ins != nil {
		t0 = time.Now()
	}
	errs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	for i, c := range s.clients {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.Accumulate(dsh.subs[i], ssh.subs[i])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if ins != nil {
		ins.acc.ObserveSeconds(time.Since(t0).Nanoseconds())
	}
	return nil
}

// WriteAccumulate implements Client: each server receives its shard's slice
// of data as one push. Shards run concurrently.
func (s *ShardedClient) WriteAccumulate(dst, src Handle, data []byte) error {
	dsh, err := s.handle(dst)
	if err != nil {
		return err
	}
	ssh, err := s.handle(src)
	if err != nil {
		return err
	}
	if dsh.total != ssh.total || len(data) != ssh.total {
		return fmt.Errorf("sharded write-accumulate %d bytes: %d += %d bytes: %w",
			len(data), dsh.total, ssh.total, ErrSizeMismatch)
	}
	return s.parallelRange(ssh, 0, data, func(i, _ int, part []byte) error {
		return s.clients[i].WriteAccumulate(dsh.subs[i], ssh.subs[i], part)
	})
}

// SetTraceContext implements Client: every shard connection carries tc, so
// each server's spans join the caller's trace.
func (s *ShardedClient) SetTraceContext(tc TraceContext) {
	for _, c := range s.clients {
		c.SetTraceContext(tc)
	}
}

// ClearTraceContext implements Client.
func (s *ShardedClient) ClearTraceContext() {
	for _, c := range s.clients {
		c.ClearTraceContext()
	}
}

// Close implements Client: closes every backing client.
func (s *ShardedClient) Close() error {
	var firstErr error
	for _, c := range s.clients {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
