package consensus

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"

	"sharper/internal/types"
)

// mapWindow is the map-shaped committed-transaction window CommitWindow
// replaced, kept as the oracle its model test checks against: a Go map of
// entries, a FIFO of TxIDs in insertion order, and a side list of the
// entries stamped ahead of insertion. Time is passed in, so a test can drive
// both with one synthetic clock.
type mapWindow struct {
	entries map[types.TxID]mapEntry
	order   []types.TxID
	head    int
	late    []types.TxID
}

type mapEntry struct {
	state verdictState
	at    int64
}

func newMapWindow() *mapWindow { return &mapWindow{entries: make(map[types.TxID]mapEntry)} }

func (c *mapWindow) get(id types.TxID) (committed, settled bool) {
	e, ok := c.entries[id]
	if !ok || e.state == statePending {
		return false, false
	}
	return e.state == stateCommitted, true
}

func (c *mapWindow) contains(id types.TxID) bool {
	_, ok := c.entries[id]
	return ok
}

func (c *mapWindow) note(txs []*types.Transaction, now int64) {
	for _, tx := range txs {
		if _, ok := c.entries[tx.ID]; ok {
			continue
		}
		c.insert(tx.ID, mapEntry{state: statePending, at: max(now, tx.Timestamp)}, now)
	}
}

func (c *mapWindow) put(id types.TxID, s verdictState, now int64) {
	if e, ok := c.entries[id]; ok {
		e.state = s
		c.entries[id] = e
		return
	}
	c.insert(id, mapEntry{state: s, at: now}, now)
}

func (c *mapWindow) insert(id types.TxID, e mapEntry, now int64) {
	c.entries[id] = e
	if e.at > now {
		c.late = append(c.late, id)
	} else {
		c.order = append(c.order, id)
	}
}

func (c *mapWindow) sweep(before int64) int {
	dropped := 0
	for c.head < len(c.order) {
		id := c.order[c.head]
		e, ok := c.entries[id]
		if ok && e.at >= before {
			break
		}
		if ok {
			delete(c.entries, id)
			dropped++
		}
		c.head++
	}
	kept := c.late[:0]
	for _, id := range c.late {
		if e, ok := c.entries[id]; ok && e.at < before {
			delete(c.entries, id)
			dropped++
		} else if ok {
			kept = append(kept, id)
		}
	}
	c.late = kept
	return dropped
}

func (c *mapWindow) rejected() map[types.TxID]bool {
	out := make(map[types.TxID]bool)
	for id, e := range c.entries {
		if e.state == stateRejected {
			out[id] = true
		}
	}
	return out
}

// runWindowModel drives a CommitWindow and the map oracle through the same
// operations, decoded from ops, and fails on the first answer or sweep count
// they disagree on. Each op is 4 bytes: a kind, a transaction picked from a
// small ID space (so notes, puts and lookups collide), a clock step and a
// stamp skew, some of which put a client timestamp ahead of the clock. One
// kind notes a run of fresh IDs instead, up to 1,021 at once, so the ring and
// the index grow, wrap and shrink back under the same operations.
func runWindowModel(t *testing.T, ops []byte) (maxChunks int) {
	const ttl = 1000
	w, m := NewCommitWindow(), newMapWindow()
	now := int64(1_000_000)
	fresh := uint64(1 << 20)
	// pick maps an op's transaction byte to an ID: one of 256 small ones, or
	// (for a negative skew) one of the fresh IDs issued so far or the next.
	pick := func(x byte, skew int64) types.TxID {
		if skew < 0 {
			return types.TxID{Client: types.ClientIDBase + 9, Seq: 1<<20 + (fresh-1<<20+1)*uint64(x)/255}
		}
		return types.TxID{Client: types.ClientIDBase + types.NodeID(x&3), Seq: uint64(x >> 2)}
	}
	var batch []*types.Transaction
	for i := 0; i+4 <= len(ops); i += 4 {
		kind, x, step, skew := ops[i]%7, ops[i+1], int64(ops[i+2]), int64(int8(ops[i+3]))
		now += step
		switch kind {
		case 0: // a block of up to 4 transactions, one maybe stamped ahead
			batch = batch[:0]
			for k := 0; k <= int(skew&3); k++ {
				ts := now - ttl/2
				if skew > 0 && k == 0 {
					ts = now + skew*16
				}
				batch = append(batch, &types.Transaction{ID: pick(x+byte(k)*37, 0), Timestamp: ts})
			}
			w.note(batch, now)
			m.note(batch, now)
		case 1:
			s := verdictOf(step&1 == 0)
			w.put(pick(x, skew), s, now)
			m.put(pick(x, skew), s, now)
		case 2:
			gc, gs := w.Get(pick(x, skew))
			mc, ms := m.get(pick(x, skew))
			if gc != mc || gs != ms {
				t.Fatalf("op %d: Get(%v) = %v, %v; oracle %v, %v", i/4, pick(x, skew), gc, gs, mc, ms)
			}
		case 3:
			if got, want := w.Contains(pick(x, skew)), m.contains(pick(x, skew)); got != want {
				t.Fatalf("op %d: Contains(%v) = %v; oracle %v", i/4, pick(x, skew), got, want)
			}
		case 4:
			before := now - ttl + skew*4
			if got, want := w.sweep(before), m.sweep(before); got != want {
				t.Fatalf("op %d: sweep(%d) dropped %d; oracle %d", i/4, before, got, want)
			}
		case 5:
			want := m.rejected()
			got := w.Rejected(nil)
			if len(got) != len(want) {
				t.Fatalf("op %d: %d rejected entries; oracle %d", i/4, len(got), len(want))
			}
			for _, r := range got {
				if !want[r] {
					t.Fatalf("op %d: %v listed rejected; oracle disagrees", i/4, r)
				}
			}
		case 6: // a block of fresh IDs, every 64th maybe stamped ahead
			batch = batch[:0]
			for k := 0; k <= int(x)*4; k++ {
				ts := now - ttl/2
				if skew > 100 && k%64 == 0 {
					ts = now + skew
				}
				batch = append(batch, &types.Transaction{ID: types.TxID{Client: types.ClientIDBase + 9, Seq: fresh}, Timestamp: ts})
				fresh++
			}
			w.note(batch, now)
			m.note(batch, now)
		}
		if got, want := w.Len(), len(m.entries); got != want {
			t.Fatalf("op %d: Len %d; oracle %d", i/4, got, want)
		}
		maxChunks = max(maxChunks, len(w.chunks))
	}
	// Every entry the oracle still holds, and a sample of the rest, answers
	// the same.
	for id := range m.entries {
		if !w.Contains(id) {
			t.Fatalf("final state: %v missing from the window", id)
		}
	}
	for b := 0; b < 256; b++ {
		for _, skew := range []int64{0, -1} {
			id := pick(byte(b), skew)
			gc, gs := w.Get(id)
			mc, ms := m.get(id)
			if gc != mc || gs != ms || w.Contains(id) != m.contains(id) {
				t.Fatalf("final state of %v differs from the oracle", id)
			}
		}
	}
	return maxChunks
}

// TestCommitWindowMatchesMapOracle runs random operation sequences — notes
// with future-stamped transactions, puts that settle and re-settle, lookups,
// sweeps and rejected-verdict scans — through the window and the map oracle.
// Sequences long enough to grow the ring and the index several times run
// beside short ones that stay in the first chunk.
func TestCommitWindowMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	grown := 0
	for run := 0; run < 64; run++ {
		ops := make([]byte, 4*(64+rng.IntN(2048)))
		for i := range ops {
			ops[i] = byte(rng.Uint32())
		}
		if runWindowModel(t, ops) > 1 {
			grown++
		}
	}
	if grown < 8 {
		t.Fatalf("only %d of 64 sequences grew the ring past one chunk", grown)
	}
}

// TestCommitWindowMatchesMapOracleAtScale fills far past one chunk and one
// index size, with every entry kept inside the TTL and then swept in
// slices, so growth (ring wrap-around included) and backward-shift deletion
// run against many thousands of live entries.
func TestCommitWindowMatchesMapOracleAtScale(t *testing.T) {
	const n = 3*chunkLen*8 + 123
	w, m := NewCommitWindow(), newMapWindow()
	now := int64(1)
	txs := make([]*types.Transaction, 1)
	for seq := uint64(0); seq < n; seq++ {
		now++
		id := types.TxID{Client: types.ClientIDBase + types.NodeID(seq%7), Seq: seq}
		txs[0] = &types.Transaction{ID: id, Timestamp: now}
		if seq%1000 == 0 {
			txs[0].Timestamp = now + 5000 // a late entry now and then
		}
		w.note(txs, now)
		m.note(txs, now)
		if seq%3 == 0 {
			w.put(id, verdictOf(seq%2 == 0), now)
			m.put(id, verdictOf(seq%2 == 0), now)
		}
		if seq%5000 == 4999 {
			// Expire the oldest half of what is live, so the ring wraps.
			cutoff := now - 2500
			if got, want := w.sweep(cutoff), m.sweep(cutoff); got != want {
				t.Fatalf("seq %d: sweep dropped %d; oracle %d", seq, got, want)
			}
		}
	}
	for seq := uint64(0); seq < n; seq++ {
		id := types.TxID{Client: types.ClientIDBase + types.NodeID(seq%7), Seq: seq}
		gc, gs := w.Get(id)
		mc, ms := m.get(id)
		if gc != mc || gs != ms || w.Contains(id) != m.contains(id) {
			t.Fatalf("%v: window (%v, %v, %v), oracle (%v, %v, %v)", id, gc, gs, w.Contains(id), mc, ms, m.contains(id))
		}
	}
	if got, want := len(w.Rejected(nil)), len(m.rejected()); got != want {
		t.Fatalf("%d rejected entries; oracle %d", got, want)
	}
	if got, want := w.sweep(now+10_000), m.sweep(now+10_000); got != want || w.Len() != 0 {
		t.Fatalf("final sweep dropped %d (oracle %d), left %d", got, want, w.Len())
	}
}

// FuzzCommitWindow is the model test's driver: any byte string is a sequence
// of window operations the table and the map oracle must answer alike.
func FuzzCommitWindow(f *testing.F) {
	seed := make([]byte, 0, 64)
	for _, op := range [][4]byte{{0, 9, 1, 3}, {1, 9, 1, 0}, {2, 9, 0, 0}, {0, 40, 1, 0x7f}, {4, 0, 200, 0}, {5, 0, 0, 1}, {3, 40, 250, 0}, {4, 0, 250, 0x80}} {
		seed = append(seed, op[:]...)
	}
	f.Add(seed)
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x0102030405060708))
	f.Fuzz(func(t *testing.T, ops []byte) {
		runWindowModel(t, ops)
	})
}
