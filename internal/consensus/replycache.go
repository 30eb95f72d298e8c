package consensus

import (
	"sync"
	"time"

	"sharper/internal/types"
)

// ReplyCache is a bounded, insertion-ordered map from transaction ID to the
// reply sent for it. Replicas use it both to answer client retransmissions
// and to keep execution idempotent; without a bound it grows with every
// transaction ever committed. Eviction is FIFO: retransmissions arrive
// within a client's timeout window, so only recent entries matter. Entries
// are stamped at insertion so Sweep can also expire by age, tying the live
// set to the node's committed window instead of letting a large capacity keep
// per-client state alive indefinitely under 10k-client churn.
//
// It is safe for concurrent use: the commit pipeline's executor populates it
// off the node event loop while the loop consults it for retransmissions.
type ReplyCache struct {
	mu      sync.Mutex
	cap     int
	entries map[types.TxID]replyEntry
	order   []types.TxID
	head    int
}

// replyEntry is a cached reply, minus the TxID it is filed under, and its
// insertion time. It is held by value and has no pointer in it, nor has the
// key, so the collector never scans the map and the cache keeps no Reply
// object alive. With every replica of a simulated deployment in one heap the
// caches hold several hundred thousand entries between them; as maps of
// pointers they were a tenth of what each collection cycle had to mark.
type replyEntry struct {
	replica   types.NodeID
	committed bool
	result    int64
	at        int64 // insertion time, Unix nanoseconds
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
	return &ReplyCache{
		cap:     capacity,
		entries: make(map[types.TxID]replyEntry),
	}
}

// Get returns the cached reply for id, if present.
func (c *ReplyCache) Get(id types.TxID) (*types.Reply, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return nil, false
	}
	return e.reply(id), true
}

// Contains reports whether id has a cached reply.
func (c *ReplyCache) Contains(id types.TxID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[id]
	return ok
}

// Put stores a copy of the reply for id (r.TxID is taken to be id), evicting
// the oldest entry when full. Re-putting an existing id refreshes its value
// but not its position or timestamp.
func (c *ReplyCache) Put(id types.TxID, r *types.Reply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[id]; ok {
		e.replica, e.committed, e.result = r.Replica, r.Committed, r.Result
		c.entries[id] = e
		return
	}
	if len(c.entries) >= c.cap {
		victim := c.order[c.head]
		c.order[c.head] = types.TxID{}
		c.head++
		if c.head > c.cap {
			// Compact the consumed prefix so the slice does not grow forever.
			c.order = append(c.order[:0], c.order[c.head:]...)
			c.head = 0
		}
		delete(c.entries, victim)
	}
	c.entries[id] = replyEntry{replica: r.Replica, committed: r.Committed, result: r.Result, at: time.Now().UnixNano()}
	c.order = append(c.order, id)
}

// Sweep removes every entry inserted before cutoff and returns how many were
// dropped. The order slice is FIFO by insertion time, so expiry consumes a
// prefix; evicted holes (zero TxIDs) and refreshed entries are skipped.
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
	if c.head > 0 && (c.head >= len(c.order) || c.head > c.cap) {
		c.order = append(c.order[:0], c.order[c.head:]...)
		c.head = 0
	}
	return dropped
}

// Len returns the number of cached replies.
func (c *ReplyCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
