// Package mempool implements the per-shard transaction pool behind the
// client-ingress gateway. A pool entry, a Record, is a replica's one record
// of a live transaction: keyed by TxID from admission until its commit is
// observed or the TTL sweep drops it, it carries the transaction's state on
// its way to ordering and the instant it entered it, the client endpoint
// owed a verdict, and the hand-over watch (Due, Act).
//
// Dedup against executed transactions is the gateway's: it consults the
// node's committed-transaction window, keyed by TxID, before offering
// anything to the pool. The pool dedups by TxID too, so a second body under
// a known TxID is a Duplicate, and the commit of either body ends the one
// record.
//
// The pool's capacity accounting covers every live record: a transaction
// drained toward the primary stays counted against the caps until its commit
// is observed, so a stalled primary (e.g. the commit pipeline's backpressure
// gate holding proposals) backs pressure all the way up to the admitting
// gateways, whose Admit then sheds with Overloaded. The byte cap is
// therefore a hard bound on gateway-held transaction memory, not just on the
// queued tail.
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
	Duplicate              // a record with this TxID is live
	Overloaded             // shed: pool at byte or count capacity
	Expired                // client timestamp outside the TTL window
)

// Config bounds one pool. Zero values take the defaults below.
type Config struct {
	// MaxBytes caps the encoded size of the live records' transactions.
	MaxBytes int64
	// MaxCount caps the number of live records.
	MaxCount int
	// TTL is how far a client timestamp may be from the admitting replica's
	// clock, in either direction, and how long a record may live before the
	// sweep drops it.
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

// State is where a live record stands on its way to ordering.
type State uint8

// Record states. Every state but Pending counts as drained: the record sits
// on the hand-over watch until its transaction is seen on the chain.
const (
	Pending    State = iota // admitted, waiting in the FIFO for Drain
	HandedOver              // drained: propagated to the primary, or taken by the primary itself
	Queued                  // in the primary's batch accumulators (intra- or cross-shard, by its Tx)
	Proposed                // proposed to consensus by this replica
	Gone                    // settled or swept; no longer in the pool
)

// Record is one live transaction. Tx is fixed at admission; every other
// field is read and written only under the pool's lock, so the node moves
// records between states through the pool's methods, one call per batch.
type Record struct {
	Tx *types.Transaction

	size     int64
	admitted time.Time
	state    State
	since    time.Time    // when the record entered state
	origin   types.NodeID // the client endpoint owed a verdict; 0 when none

	// The hand-over watch: when the record was drained (or watched again),
	// and whether the watch already ran out once on it in this view.
	drainedAt time.Time
	shared    bool

	list       *list // pending or watch; nil when on neither
	prev, next *Record
}

// list is an intrusive FIFO of records, circular through its root as in
// container/list. n is read without the pool's lock (HasQueued).
type list struct {
	root Record
	n    atomic.Int64
}

func (l *list) init() { l.root.next, l.root.prev = &l.root, &l.root }

func (l *list) push(r *Record) {
	r.list, r.prev, r.next = l, l.root.prev, &l.root
	r.prev.next, l.root.prev = r, r
	l.n.Add(1)
}

// unlink takes r off whichever list holds it.
func unlink(r *Record) {
	if r.list == nil {
		return
	}
	r.prev.next, r.next.prev = r.next, r.prev
	r.list.n.Add(-1)
	r.list, r.prev, r.next = nil, nil, nil
}

// Owed names a client endpoint owed a verdict on one transaction.
type Owed struct {
	ID types.TxID
	To types.NodeID // 0: nobody
}

// Pool is one gateway's transaction pool. Safe for concurrent use: the node
// loop admits, drains and moves records while the commit pipeline's executor
// goroutine settles them.
type Pool struct {
	cfg Config

	mu      sync.Mutex
	byID    map[types.TxID]*Record // every live record
	pending list                   // Pending records, FIFO toward Drain
	watch   list                   // drained records, in drain order
	bytes   int64                  // live records' encoded bytes
}

// New returns an empty pool bounded by cfg.
func New(cfg Config) *Pool {
	p := &Pool{cfg: cfg.withDefaults(), byID: make(map[types.TxID]*Record)}
	p.pending.init()
	p.watch.init()
	return p
}

// Config returns the bounds the pool runs with (defaults applied).
func (p *Pool) Config() Config { return p.cfg }

// Admit offers tx to the pool with nobody owed a verdict (a peer's
// propagated copy) and returns the admission verdict.
func (p *Pool) Admit(tx *types.Transaction, now time.Time) Code {
	var code [1]Code
	return p.AdmitAll([]*types.Transaction{tx}, 0, now, code[:0])[0]
}

// AdmitAll offers one submission's transactions under one lock, appending
// their verdicts to codes. from, when not 0, is the client endpoint owed the
// commit verdict of each admitted or duplicate transaction; a later direct
// submit of a live transaction takes its place.
func (p *Pool) AdmitAll(txs []*types.Transaction, from types.NodeID, now time.Time, codes []Code) []Code {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, tx := range txs {
		codes = append(codes, p.admitLocked(tx, from, now))
	}
	return codes
}

// admitLocked applies one verdict priority. A timestamp more than the TTL
// behind or ahead of now is Expired: an admitted transaction stamps the
// commit window, and one far ahead would pin its entry there until now
// catches up. Expired wins over Duplicate and Overloaded so clients learn to
// refresh their timestamp; Duplicate wins over Overloaded so re-submits of
// tracked work never read as shed load.
func (p *Pool) admitLocked(tx *types.Transaction, from types.NodeID, now time.Time) Code {
	ttl := p.cfg.TTL.Nanoseconds()
	if age := now.UnixNano() - tx.Timestamp; age > ttl || age < -ttl {
		return Expired
	}
	if r, ok := p.byID[tx.ID]; ok {
		if from != 0 {
			r.origin = from
		}
		return Duplicate
	}
	size := int64(tx.EncodedLen())
	if len(p.byID)+1 > p.cfg.MaxCount || p.bytes+size > p.cfg.MaxBytes {
		return Overloaded
	}
	r := &Record{Tx: tx, size: size, admitted: now, since: now, origin: from}
	p.byID[tx.ID] = r
	p.pending.push(r)
	p.bytes += size
	return Admitted
}

// Drain pops up to max records from the pending FIFO, hands them over and
// starts their watch. They stay counted against the caps until their commit
// is observed or the sweep drops them. Returns nil when the pool is empty or
// max is non-positive.
func (p *Pool) Drain(max int) []*Record {
	if max <= 0 {
		return nil
	}
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*Record
	for r := p.pending.root.next; r != &p.pending.root && len(out) < max; r = p.pending.root.next {
		r.state, r.since = HandedOver, now
		p.rewatch(r, now, false)
		out = append(out, r)
	}
	return out
}

// rewatch moves r to the tail of the watch, watched from now.
func (p *Pool) rewatch(r *Record, now time.Time, shared bool) {
	unlink(r)
	r.drainedAt, r.shared = now, shared
	p.watch.push(r)
}

// Mark moves drained records the node put into its batch accumulators
// (Queued) or proposed to consensus (Proposed) into that state and returns
// the ones still live, filtered in place: recs itself is left with stale
// entries past the returned length, so callers use only the result.
func (p *Pool) Mark(recs []*Record, s State, now time.Time) []*Record {
	p.mu.Lock()
	defer p.mu.Unlock()
	kept := recs[:0]
	for _, r := range recs {
		if r.state != Gone {
			r.state, r.since = s, now
			kept = append(kept, r)
		}
	}
	return kept
}

// Adopt returns the records of transactions this replica's primary must
// propose again (its instances lost their slots), marked queued. One with
// no record here is admitted like a propagated copy, and dropped if
// admission refuses it; one already queued is skipped.
func (p *Pool) Adopt(txs []*types.Transaction, now time.Time) []*Record {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*Record
	for _, tx := range txs {
		if p.byID[tx.ID] == nil && p.admitLocked(tx, 0, now) != Admitted {
			continue
		}
		r := p.byID[tx.ID]
		if r.state == Queued {
			continue
		}
		if r.state == Pending {
			p.rewatch(r, now, false)
		}
		r.state, r.since = Queued, now
		out = append(out, r)
	}
	return out
}

// Since appends to dst when each of recs entered its current state: for a
// queued record, its arrival in the accumulators.
func (p *Pool) Since(recs []*Record, dst []time.Time) []time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range recs {
		dst = append(dst, r.since)
	}
	return dst
}

// Requeue moves the drained members of recs back to the tail of the pending
// FIFO, so a later Drain hands them out again: what a replica does with the
// contents of accumulators it no longer owns (the watch's re-offers take the
// same path through Act). Settled and pending records are left alone. Their
// admission time, and with it their TTL, is unchanged.
func (p *Pool) Requeue(recs []*Record, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range recs {
		p.requeueLocked(r, now)
	}
}

func (p *Pool) requeueLocked(r *Record, now time.Time) {
	if r.state == Pending || r.state == Gone {
		return
	}
	unlink(r)
	r.state, r.since = Pending, now
	p.pending.push(r)
}

// Action is the hand-over watch's verdict on one record whose time ran out.
type Action uint8

// Watch verdicts.
const (
	Unwatch Action = iota // its settlement is coming (it is on the chain): stop watching
	Reoffer               // back to the pending FIFO, for a later Drain
	Keep                  // watch again from now
	Rewatch               // watch again from now, marked shared
)

// Due is one record whose watch ran out, with what the pool knew of it when
// the watch ran out; the caller sets Act.
type Due struct {
	Rec    *Record
	State  State     // HandedOver, Queued or Proposed
	Since  time.Time // when it entered State
	Stale  bool      // drained before the current view began here
	Shared bool      // the watch already ran out on it once in this view
	Act    Action
}

// Due takes off the hand-over watch, oldest drain first, every record whose
// time has run out: timeout from its drain, or, for a record drained before
// viewSince (the instant this replica entered the current view), half of it
// from viewSince. The caller decides each one's Act, without the pool's
// lock, and hands the verdicts to Act.
func (p *Pool) Due(now, viewSince time.Time, timeout time.Duration, dst []Due) []Due {
	p.mu.Lock()
	defer p.mu.Unlock()
	for r := p.watch.root.next; r != &p.watch.root; r = p.watch.root.next {
		stale := r.drainedAt.Before(viewSince)
		due := r.drainedAt.Add(timeout)
		if stale {
			due = viewSince.Add(timeout / 2)
		}
		if now.Before(due) {
			break
		}
		unlink(r)
		dst = append(dst, Due{Rec: r, State: r.state, Since: r.since, Stale: stale, Shared: r.shared})
	}
	return dst
}

// Act applies the watch's verdicts to records Due returned. Records settled
// since are left alone.
func (p *Pool) Act(due []Due, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range due {
		switch {
		case d.Act == Reoffer:
			p.requeueLocked(d.Rec, now)
		case d.Act != Unwatch && d.Rec.state != Gone:
			p.rewatch(d.Rec, now, d.Act == Rewatch)
		}
	}
}

// Settle ends the records of ids, whose commits (or rejections) were
// observed, releasing their capacity, and appends to owed, in the order of
// ids, the endpoints owed a verdict.
func (p *Pool) Settle(ids []types.TxID, owed []Owed) []Owed {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range ids {
		if r, ok := p.byID[id]; ok {
			p.removeLocked(r)
			if r.origin != 0 {
				owed = append(owed, Owed{ID: id, To: r.origin})
			}
		}
	}
	return owed
}

// MarkCommitted settles the record whose transaction hashes to d. It walks
// the live records, drained ones first, in drain and then admission order,
// hashing each until one matches: one hash per call when commits arrive in
// that order. No production path calls it (the node settles by TxID), and it
// goes when the benchmark's mempool probe next changes. The instant is
// ignored.
func (p *Pool) MarkCommitted(d types.Hash, _ time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, l := range [...]*list{&p.watch, &p.pending} {
		for r := l.root.next; r != &l.root; r = r.next {
			if r.Tx.Digest() == d {
				p.removeLocked(r)
				return
			}
		}
	}
}

// removeLocked forgets r and returns its capacity to the pool.
func (p *Pool) removeLocked(r *Record) {
	delete(p.byID, r.Tx.ID)
	unlink(r)
	r.state = Gone
	p.bytes -= r.size
}

// Sweep drops records older than the TTL. A pending one is returned, with
// its origin (To 0 when none), so the gateway answers Expired; a drained one
// goes silently, because its commit may still come and the window answers a
// retransmission. Call it periodically from the node tick.
func (p *Pool) Sweep(now time.Time, expired []Owed) []Owed {
	p.mu.Lock()
	defer p.mu.Unlock()
	cutoff := now.Add(-p.cfg.TTL)
	for id, r := range p.byID {
		if r.admitted.Before(cutoff) {
			if r.state == Pending {
				expired = append(expired, Owed{ID: id, To: r.origin})
			}
			p.removeLocked(r)
		}
	}
	return expired
}

// PendingBytes returns the encoded size of the live records' transactions.
func (p *Pool) PendingBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes
}

// PendingCount returns the number of live records.
func (p *Pool) PendingCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.byID)
}

// HasQueued reports whether any record awaits draining, without taking the
// pool lock (the node's pump runs after every dispatch).
func (p *Pool) HasQueued() bool { return p.pending.n.Load() > 0 }
