package consensus

import (
	"sync"
	"time"

	"sharper/internal/types"
)

// ReplyCache maps transaction IDs to the verdicts executed for them, bounded
// to a count and evicting first-in first-out. The baseline replicas use it to
// answer retransmissions and keep execution idempotent. (A SharPer replica
// keeps its verdicts in a CommitWindow, which has no count bound.)
//
// It is safe for concurrent use.
type ReplyCache struct {
	mu      sync.Mutex
	cap     int // count bound
	entries map[types.TxID]replyEntry
	// order lists entries by insertion, oldest from head on, so age expiry
	// and count eviction both consume a prefix.
	order []types.TxID
	head  int
}

// replyEntry is a cached verdict, minus the TxID it is filed under, and its
// insertion stamp. It is held by value and has no pointer in it, nor has the
// key, so the collector never scans the map and the cache keeps no Reply
// object alive.
type replyEntry struct {
	replica   types.NodeID
	committed bool
	result    int64
	at        int64 // insertion, Unix nanoseconds
}

func (e replyEntry) reply(id types.TxID) *types.Reply {
	return &types.Reply{TxID: id, Replica: e.replica, Committed: e.committed, Result: e.result}
}

// NewReplyCache creates a cache bounded to capacity entries (minimum 1).
// The map and the order slice grow with use: capacity is a bound, and a
// replica that never fills it never pays for it.
func NewReplyCache(capacity int) *ReplyCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ReplyCache{cap: capacity, entries: make(map[types.TxID]replyEntry)}
}

// Get returns the cached reply for id, if there is one.
func (c *ReplyCache) Get(id types.TxID) (*types.Reply, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return nil, false
	}
	return e.reply(id), true
}

// Contains reports whether id has an entry.
func (c *ReplyCache) Contains(id types.TxID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[id]
	return ok
}

// Put caches a copy of the reply (r.TxID is taken to be id). Re-putting an
// entry refreshes its value but not its position or stamp.
func (c *ReplyCache) Put(id types.TxID, r *types.Reply) {
	now := time.Now().UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		c.evict()
		c.order = append(c.order, id)
		e.at = now
	}
	e.replica, e.committed, e.result = r.Replica, r.Committed, r.Result
	c.entries[id] = e
}

// evict drops the oldest entry when the cache is full. Caller holds mu.
func (c *ReplyCache) evict() {
	if len(c.entries) < c.cap {
		return
	}
	for c.head < len(c.order) {
		victim := c.order[c.head]
		c.order[c.head] = types.TxID{}
		c.head++
		if _, ok := c.entries[victim]; ok {
			delete(c.entries, victim)
			break
		}
	}
	c.compact()
}

// compact drops the consumed prefix of order once it is at least half the
// slice, so the slice neither grows forever nor is copied on every eviction.
func (c *ReplyCache) compact() {
	if c.head > 0 && 2*c.head >= len(c.order) {
		c.order = append(c.order[:0], c.order[c.head:]...)
		c.head = 0
	}
}

// Sweep removes every entry stamped before cutoff and returns how many were
// dropped. The order slice is FIFO by insertion time, so expiry consumes a
// prefix; evicted holes (zero TxIDs) are skipped.
func (c *ReplyCache) Sweep(cutoff time.Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped, before := 0, cutoff.UnixNano()
	for c.head < len(c.order) {
		id := c.order[c.head]
		if id != (types.TxID{}) {
			e, ok := c.entries[id]
			if ok && e.at >= before {
				break
			}
			if ok {
				delete(c.entries, id)
				dropped++
			}
		}
		c.order[c.head] = types.TxID{}
		c.head++
	}
	c.compact()
	return dropped
}

// Len returns the number of entries.
func (c *ReplyCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
