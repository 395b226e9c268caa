package smb

import (
	"fmt"
	"sync"
)

// Sequence-numbered accumulation: at-most-once WRITE+ACCUMULATE under
// retries.
//
// The paper's platform never retries a push — the SMB server is assumed up
// for the whole job, so a ΔWx that reached the server reached it once. A
// fault-tolerant client breaks that assumption: when a push times out, the
// client cannot know whether the accumulate was applied before the
// connection died or lost with it, and blind retry risks adding the same
// gradient into Wg twice (which silently corrupts SEASGD's average — worse
// than losing the push entirely, since a lost push is just a stale worker).
//
// opSeqAccumulate fixes the ambiguity server-side: each supervised client
// stamps its accumulates with (clientID, seq), the store remembers the
// highest sequence applied per client, and a replay of an already-applied
// sequence is acknowledged without re-applying. Combined with the push
// recipe "idempotent Write of ΔWx, then SeqAccumulate" this makes the
// whole retried push exactly-once: re-writing identical bytes into the
// private src segment is harmless, and the accumulate dedupes.

// opSeqAccumulate requests ACCUMULATE(dst += src) stamped with the caller's
// (clientID, seq). Payload: dst u64, src u64, clientID u64, seq u64.
// Reply: applied u64 (1 = applied now, 0 = duplicate of an earlier apply).
const opSeqAccumulate opcode = 13

// clientSeq tracks one client's dedup state. The entry mutex is held across
// the accumulate itself so a retry racing its own in-flight original (client
// timed out, reconnected, and re-sent while the first attempt is still
// inside Accumulate on a stalled handler) serializes against it instead of
// double-applying.
type clientSeq struct {
	mu   sync.Mutex
	last uint64 // guarded by mu; highest seq applied, 0 = none
}

// seqTable maps clientID → dedup state. Entries are created lazily and
// never removed: one int64 per client over a whole job is noise next to a
// single Wg segment, and forgetting a client would reopen the replay hole.
type seqTable struct {
	mu sync.Mutex
	m  map[uint64]*clientSeq // guarded by mu
}

func (t *seqTable) entry(client uint64) *clientSeq {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[uint64]*clientSeq)
	}
	e := t.m[client]
	if e == nil {
		e = new(clientSeq)
		t.m[client] = e
	}
	return e
}

// SeqAccumulate applies dst += src at most once per (client, seq). A seq at
// or below the client's high-water mark is a duplicate: acknowledged,
// counted separately, and not applied — critically, it does NOT advance the
// accumulates counter, so Stats().Accumulates equals the number of distinct
// logical pushes applied no matter how many times each was retried (the
// invariant the fault-injection acceptance test asserts).
func (s *Store) SeqAccumulate(dst, src Handle, client, seq uint64) (bool, error) {
	if seq == 0 {
		return false, fmt.Errorf("smb seq-accumulate: sequence numbers start at 1")
	}
	e := s.seqs.entry(client)
	e.mu.Lock()
	defer e.mu.Unlock()
	if seq <= e.last {
		s.stats.seqDups.Add(1)
		return false, nil
	}
	if err := s.Accumulate(dst, src); err != nil {
		return false, err
	}
	e.last = seq
	return true, nil
}

// SeqAccumulate sends the stamped accumulate on a bare connection, with a
// caller-chosen stamp: applied=false acknowledges a seq at or below the
// highest already applied for client, without touching dst. It is not part
// of the shared verb set — a supervised session draws its own stamp, and a
// caller-supplied one would poison the dedup table for its ClientID.
func (c *StreamClient) SeqAccumulate(dst, src Handle, client, seq uint64) (applied bool, err error) {
	r, err := c.do(call{op: opSeqAccumulate, w: [4]uint64{uint64(dst), uint64(src), client, seq}})
	return r.w[0] == 1, err
}
