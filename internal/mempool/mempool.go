// Package mempool implements the per-shard transaction pool behind the
// client-ingress gateway: digest-keyed admission with dedup against pending
// and in-flight transactions, byte- and count-capped pending pools, an
// expiration window, and FIFO draining toward the sealer.
//
// The pool forgets a transaction once its commit is observed. Dedup against
// executed transactions is the gateway's: it consults the node's reply cache,
// keyed by TxID, before offering anything to the pool.
//
// The pool's capacity accounting covers pending ∪ in-flight transactions:
// a transaction drained toward the primary stays counted against the caps
// until its commit is observed, so a stalled primary (e.g. the commit
// pipeline's backpressure gate holding proposals) backs pressure all the way
// up to the admitting gateways, whose Admit then sheds with Overloaded. The
// byte cap is therefore a hard bound on gateway-held transaction memory, not
// just on the queued tail.
package mempool

import (
	"sync"
	"sync/atomic"
	"time"

	"sharper/internal/types"
)

// Code is the admission verdict for one offered transaction.
type Code uint8

// Admission outcomes.
const (
	Admitted   Code = iota // accepted into the pending pool
	Duplicate              // already pending or in flight
	Overloaded             // shed: pool at byte or count capacity
	Expired                // client timestamp outside the TTL window
)

// Config bounds one pool. Zero values take the defaults below.
type Config struct {
	// MaxBytes caps the encoded size of pending + in-flight transactions.
	MaxBytes int64
	// MaxCount caps the number of pending + in-flight transactions.
	MaxCount int
	// TTL is how far a client timestamp may be from the admitting replica's
	// clock, in either direction, and how long a pending transaction may wait
	// before the sweep expires it.
	TTL time.Duration
}

// Defaults, sized after the knobs production pools expose (pending pool
// bytes, propagation batch size, expiration deadline).
const (
	DefaultMaxBytes = int64(16 << 20)
	DefaultMaxCount = 1 << 16
	DefaultTTL      = 30 * time.Second
)

func (c Config) withDefaults() Config {
	if c.MaxBytes <= 0 {
		c.MaxBytes = DefaultMaxBytes
	}
	if c.MaxCount <= 0 {
		c.MaxCount = DefaultMaxCount
	}
	if c.TTL <= 0 {
		c.TTL = DefaultTTL
	}
	return c
}

// entry is one pooled transaction with its admission bookkeeping.
type entry struct {
	tx       *types.Transaction
	digest   types.Hash
	size     int64
	admitted time.Time
}

// Pool is one gateway's transaction pool. Safe for concurrent use: the node
// loop admits and drains while the commit pipeline's executor goroutine
// marks commits.
type Pool struct {
	cfg Config

	mu       sync.Mutex
	pending  map[types.Hash]*entry // admitted, not yet drained
	order    []*entry              // FIFO over pending (nil holes after removal)
	head     int                   // first live index in order
	inflight map[types.Hash]*entry // drained toward the sealer, commit not yet seen

	bytes int64 // pending + inflight encoded bytes
	count int   // pending + inflight transactions

	// queuedN mirrors len(pending) so the hot pump path can skip the mutex
	// when the pool is idle.
	queuedN atomic.Int64
}

// New returns an empty pool bounded by cfg.
func New(cfg Config) *Pool {
	return &Pool{
		cfg:      cfg.withDefaults(),
		pending:  make(map[types.Hash]*entry),
		inflight: make(map[types.Hash]*entry),
	}
}

// Config returns the bounds the pool runs with (defaults applied).
func (p *Pool) Config() Config { return p.cfg }

// txSize is the capacity cost of one transaction: its canonical encoding.
func txSize(tx *types.Transaction) int64 {
	return int64(len(tx.Encode(nil)))
}

// Admit offers tx to the pool and returns the admission verdict. A
// timestamp more than the TTL behind or ahead of now is Expired: an admitted
// transaction stamps the commit window, and one far ahead would pin its
// entry there until now catches up. Expired wins over Duplicate and
// Overloaded so clients learn to refresh their timestamp; Duplicate wins
// over Overloaded so re-submits of tracked work never read as shed load.
func (p *Pool) Admit(tx *types.Transaction, now time.Time) Code {
	ttl := p.cfg.TTL.Nanoseconds()
	if age := now.UnixNano() - tx.Timestamp; age > ttl || age < -ttl {
		return Expired
	}
	d := tx.Digest()
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.pending[d]; ok {
		return Duplicate
	}
	if _, ok := p.inflight[d]; ok {
		return Duplicate
	}
	size := txSize(tx)
	if p.count+1 > p.cfg.MaxCount || p.bytes+size > p.cfg.MaxBytes {
		return Overloaded
	}
	e := &entry{tx: tx, digest: d, size: size, admitted: now}
	p.pending[d] = e
	p.order = append(p.order, e)
	p.bytes += size
	p.count++
	p.queuedN.Store(int64(len(p.pending)))
	return Admitted
}

// Drain pops up to max transactions from the pending FIFO and moves them to
// the in-flight set (they stay counted against the caps until MarkCommitted
// or an expiry sweep releases them). Returns nil when the pool is empty or
// max is non-positive.
func (p *Pool) Drain(max int) []*types.Transaction {
	if max <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*types.Transaction
	for p.head < len(p.order) && len(out) < max {
		e := p.order[p.head]
		p.order[p.head] = nil
		p.head++
		if e == nil || p.pending[e.digest] != e {
			continue // removed by a sweep
		}
		delete(p.pending, e.digest)
		p.inflight[e.digest] = e
		out = append(out, e.tx)
	}
	p.compactLocked()
	p.queuedN.Store(int64(len(p.pending)))
	return out
}

// InFlight returns the members of txs that were drained and have neither
// settled nor expired since, filtering txs in place.
func (p *Pool) InFlight(txs []*types.Transaction) []*types.Transaction {
	p.mu.Lock()
	defer p.mu.Unlock()
	kept := txs[:0]
	for _, tx := range txs {
		if _, ok := p.inflight[tx.Digest()]; ok {
			kept = append(kept, tx)
		}
	}
	return kept
}

// Requeue moves the members of txs that are in flight back to the tail of the
// pending FIFO, so a later Drain hands them out again: what a gateway does
// with transactions whose hand-over it has reason to believe was lost. Their
// admission time, and with it their TTL, is unchanged.
func (p *Pool) Requeue(txs []*types.Transaction) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, tx := range txs {
		d := tx.Digest()
		e, ok := p.inflight[d]
		if !ok {
			continue
		}
		delete(p.inflight, d)
		p.pending[d] = e
		p.order = append(p.order, e)
	}
	p.queuedN.Store(int64(len(p.pending)))
}

// MarkCommitted records that the transaction with digest d committed (or was
// ordered and rejected — either way it is settled): the pool forgets it and
// releases its capacity. It keeps no record of the settlement, so the instant
// is ignored; the gateway's reply cache answers later duplicates.
func (p *Pool) MarkCommitted(d types.Hash, _ time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.pending[d]; ok {
		delete(p.pending, d)
		p.queuedN.Store(int64(len(p.pending)))
		p.releaseLocked(e)
	} else if e, ok := p.inflight[d]; ok {
		delete(p.inflight, d)
		p.releaseLocked(e)
	}
}

// releaseLocked returns e's capacity to the pool.
func (p *Pool) releaseLocked(e *entry) {
	p.bytes -= e.size
	p.count--
}

// Sweep expires state by age: pending transactions older than the TTL are
// removed and returned (the gateway answers their origins with Expired);
// over-age in-flight entries are silently released (their commit reply, if
// any, already went through the reply cache). Call it periodically from the
// node tick.
func (p *Pool) Sweep(now time.Time) []*types.Transaction {
	p.mu.Lock()
	defer p.mu.Unlock()
	var expired []*types.Transaction
	cutoff := now.Add(-p.cfg.TTL)
	for d, e := range p.pending {
		if e.admitted.Before(cutoff) {
			delete(p.pending, d)
			p.releaseLocked(e)
			expired = append(expired, e.tx)
		}
	}
	p.queuedN.Store(int64(len(p.pending)))
	for d, e := range p.inflight {
		if e.admitted.Before(cutoff) {
			delete(p.inflight, d)
			p.releaseLocked(e)
		}
	}
	return expired
}

// compactLocked reclaims the consumed prefix of the pending FIFO.
func (p *Pool) compactLocked() {
	if p.head > 0 && (p.head >= len(p.order) || p.head > 4096) {
		p.order = append(p.order[:0], p.order[p.head:]...)
		p.head = 0
	}
}

// PendingBytes returns the encoded size of pending + in-flight transactions.
func (p *Pool) PendingBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes
}

// PendingCount returns the number of pending + in-flight transactions.
func (p *Pool) PendingCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.count
}

// QueuedCount returns the number of pending (not yet drained) transactions.
func (p *Pool) QueuedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// HasQueued reports whether any transaction awaits draining, without taking
// the pool lock (the node's pump runs after every dispatch).
func (p *Pool) HasQueued() bool { return p.queuedN.Load() > 0 }
