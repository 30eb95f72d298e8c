package consensus

import (
	"sync"
	"time"

	"sharper/internal/types"
)

// ReplyCache maps transaction IDs to the verdicts executed for them. It comes
// in two shapes:
//
//   - NewReplyCache: bounded to a count, evicting first-in first-out. The
//     baseline replicas use it this way, to answer retransmissions and keep
//     execution idempotent.
//   - NewCommitWindow: a SharPer replica's one committed-transaction window.
//     It has no count bound. Entries leave only by age, through Sweep.
//
// A window entry is in one of three states. It is pending from the moment
// its block is appended to the chain (Note) until the block executes. It is
// committed or rejected once the first execution settles it (Put). Contains
// answers "is this transaction on the chain?" and counts pending entries; Get
// answers "what was the verdict?" and returns settled entries only, so a
// block's own notes never make its first execution look like a repeat. A
// note never resets a settled entry.
//
// Each entry is stamped with max(insertion time, the client's timestamp). A
// window swept at the mempool's admission TTL is exact: once an entry is
// older than the TTL, so is every copy of its transaction, and the pool
// answers each of them Expired before anything could order it again. No
// count bound may evict earlier, or a retransmission inside the TTL would be
// ordered a second time.
//
// It is safe for concurrent use: the commit pipeline's executor settles
// entries off the node event loop while the loop notes and consults them.
type ReplyCache struct {
	mu      sync.Mutex
	cap     int // count bound; 0 for a window, which has none
	entries map[types.TxID]replyEntry
	// order lists entries by insertion, oldest from head on, so age expiry
	// consumes a prefix. late holds the rare entries stamped with a client
	// timestamp ahead of their insertion: their expiry does not follow
	// insertion order, and queued in order they would hold the sweep up.
	order []types.TxID
	head  int
	late  []types.TxID
}

// replyState is where a transaction stands in the cache.
type replyState uint8

const (
	statePending   replyState = iota // on the chain, not yet executed
	stateCommitted                   // executed and applied
	stateRejected                    // executed and refused (overdraft, veto)
)

// replyEntry is a cached verdict, minus the TxID it is filed under, and its
// expiry stamp. It is held by value and has no pointer in it, nor has the
// key, so the collector never scans the map and the cache keeps no Reply
// object alive. With every replica of a simulated deployment in one heap the
// caches hold several hundred thousand entries between them; as maps of
// pointers they were a tenth of what each collection cycle had to mark.
type replyEntry struct {
	replica types.NodeID
	state   replyState
	result  int64
	at      int64 // max(insertion, client timestamp), Unix nanoseconds
}

func (e replyEntry) reply(id types.TxID) *types.Reply {
	return &types.Reply{TxID: id, Replica: e.replica, Committed: e.state == stateCommitted, Result: e.result}
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

// NewCommitWindow creates a replica's committed-transaction window: a cache
// with no count bound, which the owner sweeps at the admission TTL.
func NewCommitWindow() *ReplyCache {
	return &ReplyCache{entries: make(map[types.TxID]replyEntry)}
}

// Get returns the settled verdict for id, if there is one.
func (c *ReplyCache) Get(id types.TxID) (*types.Reply, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok || e.state == statePending {
		return nil, false
	}
	return e.reply(id), true
}

// Contains reports whether id has an entry, pending or settled.
func (c *ReplyCache) Contains(id types.TxID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[id]
	return ok
}

// Note records the transactions of a block just appended to the chain as
// pending. A transaction that already has an entry keeps it as it is.
func (c *ReplyCache) Note(txs []*types.Transaction) {
	now := time.Now().UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, tx := range txs {
		if _, ok := c.entries[tx.ID]; ok {
			continue
		}
		c.insert(tx.ID, replyEntry{state: statePending, at: max(now, tx.Timestamp)}, now)
	}
}

// Put settles id with a copy of the reply (r.TxID is taken to be id). A
// pending entry keeps its stamp and position; re-putting a settled entry
// refreshes its value but not its position or stamp.
func (c *ReplyCache) Put(id types.TxID, r *types.Reply) {
	state := stateRejected
	if r.Committed {
		state = stateCommitted
	}
	now := time.Now().UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[id]; ok {
		e.replica, e.state, e.result = r.Replica, state, r.Result
		c.entries[id] = e
		return
	}
	c.insert(id, replyEntry{replica: r.Replica, state: state, result: r.Result, at: now}, now)
}

// insert files a new entry inserted at now, first evicting the oldest one
// when a count bound is full. Caller holds mu.
func (c *ReplyCache) insert(id types.TxID, e replyEntry, now int64) {
	if c.cap > 0 && len(c.entries) >= c.cap {
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
	c.entries[id] = e
	if e.at > now {
		c.late = append(c.late, id)
	} else {
		c.order = append(c.order, id)
	}
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
// prefix; evicted holes (zero TxIDs) are skipped. The late entries are
// checked one by one.
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
	kept := c.late[:0]
	for _, id := range c.late {
		if e, ok := c.entries[id]; ok && e.at < before {
			delete(c.entries, id)
			dropped++
		} else if ok {
			kept = append(kept, id)
		}
	}
	clear(c.late[len(kept):])
	c.late = kept
	return dropped
}

// Len returns the number of entries, pending and settled.
func (c *ReplyCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
