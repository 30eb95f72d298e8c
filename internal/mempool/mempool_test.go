package mempool

import (
	"testing"
	"time"

	"sharper/internal/types"
)

// stateOf reports the state of the live record for id.
func stateOf(p *Pool, id types.TxID) (State, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r, ok := p.byID[id]; ok {
		return r.state, true
	}
	return Gone, false
}

func mkTx(client types.NodeID, seq uint64, at time.Time) *types.Transaction {
	return &types.Transaction{
		ID:        types.TxID{Client: client, Seq: seq},
		Client:    client,
		Timestamp: at.UnixNano(),
		Ops:       []types.Op{{From: 1, To: 2, Amount: 3}},
		Involved:  types.NewClusterSet(0),
	}
}

func TestAdmitDrainCommit(t *testing.T) {
	now := time.Now()
	p := New(Config{})
	tx := mkTx(types.ClientIDBase, 1, now)
	if c := p.Admit(tx, now); c != Admitted {
		t.Fatalf("admit: got %d", c)
	}
	if c := p.Admit(tx, now); c != Duplicate {
		t.Fatalf("re-admit pending: got %d, want Duplicate", c)
	}
	if n := p.PendingCount(); n != 1 {
		t.Fatalf("pending count %d", n)
	}
	got := p.Drain(10)
	if len(got) != 1 || got[0].Tx != tx {
		t.Fatalf("drain returned %v", got)
	}
	// In flight still counts against capacity and still dedups.
	if n := p.PendingCount(); n != 1 {
		t.Fatalf("inflight not counted: %d", n)
	}
	if c := p.Admit(tx, now); c != Duplicate {
		t.Fatalf("re-admit inflight: got %d, want Duplicate", c)
	}
	p.MarkCommitted(tx.Digest(), now)
	if n := p.PendingCount(); n != 0 {
		t.Fatalf("capacity not released: %d", n)
	}
	if b := p.PendingBytes(); b != 0 {
		t.Fatalf("bytes not released: %d", b)
	}
}

func TestCountCapSheds(t *testing.T) {
	now := time.Now()
	p := New(Config{MaxCount: 2})
	for i := uint64(1); i <= 2; i++ {
		if c := p.Admit(mkTx(types.ClientIDBase, i, now), now); c != Admitted {
			t.Fatalf("admit %d: got %d", i, c)
		}
	}
	if c := p.Admit(mkTx(types.ClientIDBase, 3, now), now); c != Overloaded {
		t.Fatalf("over cap: got %d, want Overloaded", c)
	}
	// Draining does NOT free capacity — only commit observation does.
	p.Drain(2)
	if c := p.Admit(mkTx(types.ClientIDBase, 3, now), now); c != Overloaded {
		t.Fatalf("inflight over cap: got %d, want Overloaded", c)
	}
	p.Settle([]types.TxID{{Client: types.ClientIDBase, Seq: 1}}, nil)
	if c := p.Admit(mkTx(types.ClientIDBase, 3, now), now); c != Admitted {
		t.Fatalf("after release: got %d", c)
	}
}

func TestByteCapSheds(t *testing.T) {
	now := time.Now()
	one := mkTx(types.ClientIDBase, 1, now)
	size := int64(len(one.Encode(nil)))
	p := New(Config{MaxBytes: 2*size + 1})
	if c := p.Admit(one, now); c != Admitted {
		t.Fatalf("admit 1: %d", c)
	}
	if c := p.Admit(mkTx(types.ClientIDBase, 2, now), now); c != Admitted {
		t.Fatalf("admit 2: %d", c)
	}
	if c := p.Admit(mkTx(types.ClientIDBase, 3, now), now); c != Overloaded {
		t.Fatalf("over byte cap: got %d, want Overloaded", c)
	}
	if b := p.PendingBytes(); b > 2*size+1 {
		t.Fatalf("byte cap exceeded: %d > %d", b, 2*size+1)
	}
}

func TestExpiry(t *testing.T) {
	now := time.Now()
	p := New(Config{TTL: time.Second})
	stale := mkTx(types.ClientIDBase, 1, now.Add(-2*time.Second))
	if c := p.Admit(stale, now); c != Expired {
		t.Fatalf("stale admit: got %d, want Expired", c)
	}
	fresh := mkTx(types.ClientIDBase, 2, now)
	if c := p.Admit(fresh, now); c != Admitted {
		t.Fatalf("fresh admit: %d", c)
	}
	exp := p.Sweep(now.Add(5*time.Second), nil)
	if len(exp) != 1 || exp[0].ID != fresh.ID {
		t.Fatalf("sweep returned %v", exp)
	}
	if n := p.PendingCount(); n != 0 {
		t.Fatalf("sweep left %d counted", n)
	}
	// Expired-in-flight entries release capacity too.
	tx3 := mkTx(types.ClientIDBase, 3, now.Add(5*time.Second))
	if c := p.Admit(tx3, now.Add(5*time.Second)); c != Admitted {
		t.Fatalf("admit 3: %d", c)
	}
	p.Drain(1)
	if exp := p.Sweep(now.Add(20*time.Second), nil); len(exp) != 0 {
		t.Fatalf("sweep answered a drained transaction: %v", exp)
	}
	if n := p.PendingCount(); n != 0 {
		t.Fatalf("inflight expiry left %d counted", n)
	}
}

// TestFutureTimestampExpired: the TTL window is symmetric. A timestamp an
// hour ahead would otherwise pin a commit-window entry for an hour plus the
// TTL; it answers Expired, while one just inside the window is admitted.
func TestFutureTimestampExpired(t *testing.T) {
	now := time.Now()
	p := New(Config{TTL: time.Second})
	if c := p.Admit(mkTx(types.ClientIDBase, 1, now.Add(time.Hour)), now); c != Expired {
		t.Fatalf("hour-ahead admit: got %d, want Expired", c)
	}
	if c := p.Admit(mkTx(types.ClientIDBase, 2, now.Add(500*time.Millisecond)), now); c != Admitted {
		t.Fatalf("slightly-ahead admit: got %d, want Admitted", c)
	}
}

func TestDrainFIFO(t *testing.T) {
	now := time.Now()
	p := New(Config{})
	for i := uint64(1); i <= 5; i++ {
		p.Admit(mkTx(types.ClientIDBase, i, now), now)
	}
	got := p.Drain(3)
	if len(got) != 3 {
		t.Fatalf("drained %d", len(got))
	}
	for i, r := range got {
		if r.Tx.ID.Seq != uint64(i+1) {
			t.Fatalf("drain order: pos %d got seq %d", i, r.Tx.ID.Seq)
		}
	}
	if n := int(p.pending.n.Load()); n != 2 {
		t.Fatalf("queued after drain: %d", n)
	}
}

// TestRequeueReturnsInFlightToPending covers the gateway's re-offer: a
// requeued handed-over record drains again, a settled one and one not
// drained since are left alone, it keeps counting against the caps
// throughout, and it keeps its original admission time.
func TestRequeueReturnsInFlightToPending(t *testing.T) {
	now := time.Now()
	p := New(Config{TTL: time.Second})
	a, b, c := mkTx(types.ClientIDBase, 1, now), mkTx(types.ClientIDBase, 2, now), mkTx(types.ClientIDBase, 3, now)
	for _, tx := range []*types.Transaction{a, b, c} {
		if code := p.Admit(tx, now); code != Admitted {
			t.Fatalf("admit %s: got %d", tx.ID, code)
		}
	}
	drained := p.Drain(2) // a, b handed over; c pending
	if len(drained) != 2 {
		t.Fatalf("drained %d", len(drained))
	}
	p.Settle([]types.TxID{a.ID}, nil)
	p.Requeue(drained, now) // a settled: only b moves
	if st, ok := stateOf(p, a.ID); ok {
		t.Fatalf("settled record still live in state %d", st)
	}
	if n := int(p.pending.n.Load()); n != 2 {
		t.Fatalf("queued after requeue: %d, want 2", n)
	}
	if n := p.PendingCount(); n != 2 {
		t.Fatalf("capacity after requeue: %d, want 2", n)
	}
	p.Requeue(drained[1:], now) // b is pending again: not queued twice
	if n := int(p.pending.n.Load()); n != 2 {
		t.Fatalf("requeue of a pending record: queued %d, want 2", n)
	}
	if code := p.Admit(b, now); code != Duplicate {
		t.Fatalf("re-admit requeued: got %d, want Duplicate", code)
	}
	if got := p.Drain(10); len(got) != 2 || got[0].Tx != c || got[1].Tx != b {
		t.Fatalf("drain after requeue = %v, want the pending one then the requeued one", got)
	}
	// A requeued transaction ages from its admission, not from the requeue.
	p.Requeue(drained[1:], now)
	if exp := p.Sweep(now.Add(2*time.Second), nil); len(exp) != 1 || exp[0].ID != b.ID {
		t.Fatalf("sweep expired %v, want the requeued transaction", exp)
	}
}

// TestSecondBodyIsDuplicate: a second body under a live TxID is a Duplicate
// that takes over the verdict's endpoint, and settling the TxID ends the one
// record, whichever body committed.
func TestSecondBodyIsDuplicate(t *testing.T) {
	now := time.Now()
	p := New(Config{})
	a := mkTx(types.ClientIDBase, 1, now)
	b := mkTx(types.ClientIDBase, 1, now)
	b.Ops = []types.Op{{From: 1, To: 2, Amount: 4}}
	if codes := p.AdmitAll([]*types.Transaction{a}, 7, now, nil); codes[0] != Admitted {
		t.Fatalf("first body: %d", codes[0])
	}
	if codes := p.AdmitAll([]*types.Transaction{b}, 9, now, nil); codes[0] != Duplicate {
		t.Fatalf("second body: %d, want Duplicate", codes[0])
	}
	owed := p.Settle([]types.TxID{b.ID}, nil)
	if len(owed) != 1 || owed[0].To != 9 {
		t.Fatalf("owed %v, want the later submitter", owed)
	}
	if n, size := p.PendingCount(), p.PendingBytes(); n != 0 || size != 0 {
		t.Fatalf("%d records, %d bytes left after settling", n, size)
	}
}

// TestWatchVerdicts walks the hand-over watch: nothing before the deadline,
// then each record with its state and the instant it entered it, and each
// verdict applied. A reoffered record drains again, a kept one and a
// rewatched one are due a timeout later (only the rewatched one shared), an
// unwatched one stays live off the watch, and a settled one is left alone.
func TestWatchVerdicts(t *testing.T) {
	const timeout = time.Second
	now := time.Now()
	p := New(Config{})
	txs := make([]*types.Transaction, 5)
	for i := range txs {
		txs[i] = mkTx(types.ClientIDBase, uint64(i+1), now)
		p.Admit(txs[i], now)
	}
	recs := p.Drain(5)
	later := time.Now().Add(timeout) // every drain's deadline has passed
	p.Mark(p.Mark(recs[1:2], Queued, now), Proposed, later.Add(-timeout/2))
	p.Mark(recs[2:3], Queued, now)
	verdict := []Action{Reoffer, Keep, Keep, Rewatch, Unwatch}
	walk := func(at time.Time) []Due {
		due := p.Due(at, time.Time{}, timeout, nil)
		for i := range due {
			due[i].Act = verdict[due[i].Rec.Tx.ID.Seq-1]
		}
		p.Act(due, at)
		return due
	}
	if due := walk(now); len(due) != 0 {
		t.Fatalf("watch ran out early on %d records", len(due))
	}
	due := walk(later)
	if len(due) != 5 {
		t.Fatalf("watch saw %d records, want all five", len(due))
	}
	for i, d := range due {
		if d.Rec != recs[i] || d.Stale || d.Shared {
			t.Fatalf("due %d: %+v, want record %d in drain order, neither stale nor shared", i, d, i+1)
		}
	}
	if d := due[1]; d.State != Proposed || !d.Since.Equal(later.Add(-timeout/2)) {
		t.Fatalf("proposed record due in state %d since %v", d.State, d.Since)
	}
	if d := due[2]; d.State != Queued || !d.Since.Equal(now) {
		t.Fatalf("queued record due in state %d since %v", d.State, d.Since)
	}
	if d := due[0]; d.State != HandedOver {
		t.Fatalf("handed-over record due in state %d", d.State)
	}
	if got := p.Drain(5); len(got) != 1 || got[0] != recs[0] {
		t.Fatalf("drained %v after the watch, want only the reoffered handed-over record", got)
	}
	for i, want := range []State{HandedOver, Proposed, Queued, HandedOver, HandedOver} {
		if st, ok := stateOf(p, txs[i].ID); !ok || st != want {
			t.Fatalf("record %d: state %d (live %v), want %d", i+1, st, ok, want)
		}
	}
	due = p.Due(later.Add(timeout), time.Time{}, timeout, nil)
	if len(due) != 4 {
		t.Fatalf("second walk saw %d records, want every watched record but the unwatched one", len(due))
	}
	for _, d := range due {
		if d.Shared != (d.Rec == recs[3]) {
			t.Fatalf("record %d: shared %v, want only the rewatched one shared", d.Rec.Tx.ID.Seq, d.Shared)
		}
	}
	p.Settle([]types.TxID{txs[1].ID}, nil)
	for i := range due {
		due[i].Act = Reoffer
	}
	p.Act(due, later.Add(timeout))
	if got := p.Drain(5); len(got) != 3 {
		t.Fatalf("reoffered %d records, want the three still live", len(got))
	}
}
