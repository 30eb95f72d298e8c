package consensus

import (
	"math/bits"
	"math/rand/v2"
	"sync"
	"time"

	"sharper/internal/types"
)

// CommitWindow is a SharPer replica's one committed-transaction window: every
// transaction on the chain from the moment its block is appended, and its
// verdict once executed. It has no count bound. Entries leave only by age,
// through Sweep.
//
// An entry is in one of three states. It is pending from the moment its block
// is appended to the chain (Note) until the block executes. It is committed
// or rejected once the first execution settles it (Put). Contains answers "is
// this transaction on the chain?" and counts pending entries; Get answers
// "what was the verdict?" and returns settled entries only, so a block's own
// notes never make its first execution look like a repeat. A note never
// resets a settled entry.
//
// Each entry is stamped with max(insertion time, the client's timestamp). A
// window swept at the mempool's admission TTL is exact: once an entry is
// older than the TTL, so is every copy of its transaction, and the pool
// answers each of them Expired before anything could order it again. No
// count bound may evict earlier, or a retransmission inside the TTL would be
// ordered a second time.
//
// The window stores a verdict, not a reply: the replica is always the owner
// and no executor produces a result, so callers build the reply they send.
//
// Layout. Entries are 24-byte records (TxID, state, stamp) kept in insertion
// order in a ring of fixed-size chunks, oldest at head. An open-addressing
// index of uint32 ring positions (linear probing, at most 5/8 full) finds a
// record by TxID; each index slot also carries bits of the TxID's hash that
// do not pick its home slot, so a probe loads a record only when they match. Neither the
// chunks nor the index hold a pointer, so the collector never scans the
// window; only the short chunk list is scannable. A window of n entries holds
// about 24n bytes of records (chunks are allocated as the tail reaches them
// and freed as the head leaves them) plus 6.4n to 12.8n of index.
//
// Sweeping pops expired records off the head and deletes their index slots
// by backward shift, so the index never holds tombstones. Only growth
// rebuilds the index: when the ring is full its chunk list doubles, and when
// the index would pass its load bound it doubles; both cost O(n) once per
// doubling. Entries stamped ahead of insertion (a client clock running fast)
// do not follow insertion order, so they are kept in a small side map and
// checked one by one at each sweep: they neither expire early nor hold up the
// sweep of the records behind them.
//
// It is safe for concurrent use: the commit pipeline's executor settles
// entries off the node event loop while the loop notes and consults them.
type CommitWindow struct {
	mu sync.Mutex

	// The ring: positions [0, len(chunks)·chunkLen), records at
	// head, head+1, … for n positions, wrapping. len(chunks) is a power of
	// two; a chunk no record occupies is nil.
	chunks []*windowChunk
	spare  *windowChunk // one freed chunk, kept for the tail to reuse
	head   uint32
	n      uint32

	// The index: 0 marks an empty slot; otherwise the low posBits hold the
	// record's ring position + 1 and the rest the same bits of its hash.
	slots   []uint32
	shift   uint   // 64 − log2(len(slots)): a hash's home slot is h >> shift
	posMask uint32 // (1 << posBits) − 1
	seed    uint64

	late     map[types.TxID]lateEntry // entries stamped ahead of insertion
	rejected int                      // rejected entries, ring and late
}

// verdictState is where a transaction stands in the window.
type verdictState uint8

const (
	statePending   verdictState = iota // on the chain, not yet executed
	stateCommitted                     // executed and applied
	stateRejected                      // executed and refused (overdraft, veto)
)

func verdictOf(committed bool) verdictState {
	if committed {
		return stateCommitted
	}
	return stateRejected
}

// windowRec is one ring record: 24 bytes, no pointer.
type windowRec struct {
	seq    uint64
	at     int64 // max(insertion, client timestamp), Unix nanoseconds
	client types.NodeID
	state  verdictState
}

func (r *windowRec) id() types.TxID { return types.TxID{Client: r.client, Seq: r.seq} }

// lateEntry is a side-map entry: a record stamped ahead of its insertion.
type lateEntry struct {
	at    int64
	state verdictState
}

const (
	chunkBits = 10
	chunkLen  = 1 << chunkBits // records per chunk: 24 KiB
	minSlots  = 1 << 11        // smallest index, once anything is filed

	// The index is at most maxLoadNum/maxLoadDen full: short probe runs,
	// and 6.4 to 12.8 bytes of index per entry between doublings.
	maxLoadNum, maxLoadDen = 5, 8
)

type windowChunk [chunkLen]windowRec

// NewCommitWindow creates an empty window; it allocates nothing until the
// first entry is filed.
func NewCommitWindow() *CommitWindow {
	return &CommitWindow{seed: rand.Uint64()}
}

// Get returns the settled verdict for id: committed reports whether it
// executed and applied, settled whether there is a verdict at all.
func (w *CommitWindow) Get(id types.TxID) (committed, settled bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s, ok := w.state(id)
	return s == stateCommitted, ok && s != statePending
}

// Contains reports whether id has an entry, pending or settled.
func (w *CommitWindow) Contains(id types.TxID) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, ok := w.state(id)
	return ok
}

// Note records the transactions of a block just appended to the chain as
// pending. A transaction that already has an entry keeps it as it is.
func (w *CommitWindow) Note(txs []*types.Transaction) {
	now := time.Now().UnixNano()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.note(txs, now)
}

func (w *CommitWindow) note(txs []*types.Transaction, now int64) {
	for _, tx := range txs {
		if _, ok := w.state(tx.ID); !ok {
			w.insert(tx.ID, statePending, max(now, tx.Timestamp), now)
		}
	}
}

// Put settles id with a verdict. A pending entry keeps its stamp and
// position; re-putting a settled entry replaces the verdict but not its
// position or stamp.
func (w *CommitWindow) Put(id types.TxID, committed bool) {
	now := time.Now().UnixNano()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.put(id, verdictOf(committed), now)
}

func (w *CommitWindow) put(id types.TxID, s verdictState, now int64) {
	if _, slot, ok := w.find(id); ok {
		w.settle(&w.rec(w.slots[slot]&w.posMask-1).state, s)
		return
	}
	if e, ok := w.late[id]; ok {
		w.settle(&e.state, s)
		w.late[id] = e
		return
	}
	w.insert(id, s, now, now)
}

// settle replaces an entry's state, keeping the rejected count.
func (w *CommitWindow) settle(state *verdictState, s verdictState) {
	if *state == stateRejected {
		w.rejected--
	}
	if s == stateRejected {
		w.rejected++
	}
	*state = s
}

// Sweep removes every entry stamped before cutoff and returns how many were
// dropped. The ring is in insertion order, so expiry pops a prefix of it;
// the late entries are checked one by one.
func (w *CommitWindow) Sweep(cutoff time.Time) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sweep(cutoff.UnixNano())
}

func (w *CommitWindow) sweep(before int64) int {
	dropped := 0
	for w.n > 0 {
		r := w.rec(w.head)
		if r.at >= before {
			break
		}
		if r.state == stateRejected {
			w.rejected--
		}
		w.unindex(w.head, r.id())
		w.popHead()
		dropped++
	}
	for id, e := range w.late {
		if e.at < before {
			if e.state == stateRejected {
				w.rejected--
			}
			delete(w.late, id)
			dropped++
		}
	}
	return dropped
}

// Len returns the number of entries, pending and settled.
func (w *CommitWindow) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return int(w.n) + len(w.late)
}

// Rejected appends the IDs of the rejected entries to dst: every rejected
// verdict admission can still ask for, plus any older one the next sweep has
// yet to drop. A checkpoint carries them so a restarted replica answers
// them honestly. A window holding no rejected entry returns dst without a
// scan; otherwise the scan walks every entry.
func (w *CommitWindow) Rejected(dst []types.TxID) []types.TxID {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.rejected == 0 {
		return dst
	}
	// Chunk by chunk: the records from head to the tail, wrapping.
	for i := uint32(0); i < w.n; {
		pos := w.ringPos(i)
		off := pos & (chunkLen - 1)
		recs := w.chunks[pos>>chunkBits][off:min(chunkLen, off+w.n-i)]
		for k := range recs {
			if recs[k].state == stateRejected {
				dst = append(dst, recs[k].id())
			}
		}
		i += uint32(len(recs))
	}
	for id, e := range w.late {
		if e.state == stateRejected {
			dst = append(dst, id)
		}
	}
	return dst
}

// state returns id's state, if it has an entry. Caller holds mu.
func (w *CommitWindow) state(id types.TxID) (verdictState, bool) {
	if _, slot, ok := w.find(id); ok {
		return w.rec(w.slots[slot]&w.posMask - 1).state, true
	}
	if len(w.late) > 0 {
		if e, ok := w.late[id]; ok {
			return e.state, true
		}
	}
	return 0, false
}

// insert files a new entry for id, which has none. Caller holds mu.
func (w *CommitWindow) insert(id types.TxID, s verdictState, at, now int64) {
	if s == stateRejected {
		w.rejected++
	}
	if at > now {
		if w.late == nil {
			w.late = make(map[types.TxID]lateEntry)
		}
		w.late[id] = lateEntry{at: at, state: s}
		return
	}
	if w.n == w.ringCap() || maxLoadDen*(int(w.n)+1) > maxLoadNum*len(w.slots) {
		w.grow()
	}
	pos := w.ringPos(w.n)
	c := pos >> chunkBits
	if w.chunks[c] == nil {
		w.chunks[c], w.spare = w.spare, nil
		if w.chunks[c] == nil {
			w.chunks[c] = new(windowChunk)
		}
	}
	w.chunks[c][pos&(chunkLen-1)] = windowRec{seq: id.Seq, at: at, client: id.Client, state: s}
	w.n++
	w.index(id, pos)
}

// hash mixes a TxID with the window's random seed (the splitmix64
// finalizer), so the IDs clients pick do not decide where they land in the
// index.
func (w *CommitWindow) hash(id types.TxID) uint64 {
	h := (id.Seq ^ w.seed) * 0x9e3779b97f4a7c15
	h ^= uint64(id.Client) << 7
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// find probes for id's index slot. It returns id's hash and, when id is not
// indexed, the empty slot where it would go. Caller holds mu.
func (w *CommitWindow) find(id types.TxID) (h uint64, slot int, ok bool) {
	if len(w.slots) == 0 {
		return 0, 0, false
	}
	h = w.hash(id)
	tag := uint32(h) &^ w.posMask
	mask := len(w.slots) - 1
	for i := int(h >> w.shift); ; i = (i + 1) & mask {
		s := w.slots[i]
		if s == 0 {
			return h, i, false
		}
		if s&^w.posMask == tag {
			if r := w.rec(s&w.posMask - 1); r.seq == id.Seq && r.client == id.Client {
				return h, i, true
			}
		}
	}
}

// index files ring position pos under id, which is not indexed.
func (w *CommitWindow) index(id types.TxID, pos uint32) {
	h, slot, _ := w.find(id)
	w.slots[slot] = uint32(h)&^w.posMask | (pos + 1)
}

// unindex deletes the index slot of the record at ring position pos, filed
// under id, then shifts back the entries after it that probed past it, so
// the probe runs stay unbroken without tombstones.
func (w *CommitWindow) unindex(pos uint32, id types.TxID) {
	mask := len(w.slots) - 1
	i := int(w.hash(id) >> w.shift)
	for w.slots[i]&w.posMask != pos+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; w.slots[j] != 0; j = (j + 1) & mask {
		s := w.slots[j]
		home := int(w.hash(w.rec(s&w.posMask-1).id()) >> w.shift)
		if (j-home)&mask >= (j-i)&mask {
			w.slots[i] = s
			i = j
		}
	}
	w.slots[i] = 0
}

func (w *CommitWindow) ringCap() uint32 { return uint32(len(w.chunks)) << chunkBits }

// ringPos is the ring position of the i-th record from head.
func (w *CommitWindow) ringPos(i uint32) uint32 { return (w.head + i) & (w.ringCap() - 1) }

func (w *CommitWindow) rec(pos uint32) *windowRec {
	return &w.chunks[pos>>chunkBits][pos&(chunkLen-1)]
}

// popHead drops the head record. A chunk the head leaves goes back to the
// spare, or to the collector, unless the tail has wrapped into it.
func (w *CommitWindow) popHead() {
	w.head = (w.head + 1) & (w.ringCap() - 1)
	w.n--
	if w.head&(chunkLen-1) != 0 || w.n > w.ringCap()-chunkLen {
		return
	}
	c := ((w.head - 1) & (w.ringCap() - 1)) >> chunkBits
	if w.spare == nil {
		w.spare = w.chunks[c]
	}
	w.chunks[c] = nil
}

// grow makes room for one more record: it doubles the ring when full and
// the index when it would pass its load bound, then rebuilds the index, whose
// slots encode ring positions in a width that follows the ring's size.
func (w *CommitWindow) grow() {
	if w.n == w.ringCap() {
		w.growRing()
	}
	size := max(len(w.slots), minSlots)
	for maxLoadDen*(int(w.n)+1) > maxLoadNum*size {
		size *= 2
	}
	if size != len(w.slots) {
		w.slots = make([]uint32, size)
	} else {
		clear(w.slots)
	}
	w.shift = uint(64 - bits.TrailingZeros(uint(size)))
	w.posMask = uint32(uint64(1)<<bits.Len32(w.ringCap()) - 1)
	for i := uint32(0); i < w.n; i++ {
		pos := w.ringPos(i)
		w.index(w.rec(pos).id(), pos)
	}
}

// growRing doubles a full ring's chunk list. The records from head to the
// end of the old ring keep their positions; the wrapped records before head
// move up by the old capacity, which moves whole chunks and copies only the
// part of head's chunk before head.
func (w *CommitWindow) growRing() {
	old := len(w.chunks)
	if old == 0 {
		w.chunks = make([]*windowChunk, 1)
		return
	}
	chunks := make([]*windowChunk, 2*old)
	copy(chunks, w.chunks)
	hc, ho := int(w.head>>chunkBits), w.head&(chunkLen-1)
	for c := 0; c < hc; c++ {
		chunks[old+c], chunks[c] = chunks[c], nil
	}
	if ho > 0 {
		moved := new(windowChunk)
		copy(moved[:ho], chunks[hc][:ho])
		chunks[old+hc] = moved
	}
	w.chunks = chunks
}
