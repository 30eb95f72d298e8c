package mempool

import (
	"testing"
	"time"

	"sharper/internal/types"
)

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
	if len(got) != 1 || got[0] != tx {
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
	p.MarkCommitted(mkTx(types.ClientIDBase, 1, now).Digest(), now)
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
	exp := p.Sweep(now.Add(5 * time.Second))
	if len(exp) != 1 || exp[0] != fresh {
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
	p.Sweep(now.Add(20 * time.Second))
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
	for i, tx := range got {
		if tx.ID.Seq != uint64(i+1) {
			t.Fatalf("drain order: pos %d got seq %d", i, tx.ID.Seq)
		}
	}
	if n := p.QueuedCount(); n != 2 {
		t.Fatalf("queued after drain: %d", n)
	}
}

// TestRequeueReturnsInFlightToPending covers the gateway's re-offer: only
// what is still in flight goes back, it drains again, it keeps counting
// against the caps throughout, and it keeps its original admission time.
func TestRequeueReturnsInFlightToPending(t *testing.T) {
	now := time.Now()
	p := New(Config{TTL: time.Second})
	a, b, c := mkTx(types.ClientIDBase, 1, now), mkTx(types.ClientIDBase, 2, now), mkTx(types.ClientIDBase, 3, now)
	for _, tx := range []*types.Transaction{a, b, c} {
		if code := p.Admit(tx, now); code != Admitted {
			t.Fatalf("admit %s: got %d", tx.ID, code)
		}
	}
	if got := p.Drain(2); len(got) != 2 { // a, b in flight; c pending
		t.Fatalf("drained %d", len(got))
	}
	p.MarkCommitted(a.Digest(), now)
	if got := p.InFlight([]*types.Transaction{a, b, c}); len(got) != 1 || got[0] != b {
		t.Fatalf("InFlight = %v, want only the drained, unsettled one", got)
	}

	p.Requeue([]*types.Transaction{a, b, c}) // a settled, c never drained: only b moves
	if n := p.QueuedCount(); n != 2 {
		t.Fatalf("queued after requeue: %d, want 2", n)
	}
	if n := p.PendingCount(); n != 2 {
		t.Fatalf("capacity after requeue: %d, want 2", n)
	}
	if code := p.Admit(b, now); code != Duplicate {
		t.Fatalf("re-admit requeued: got %d, want Duplicate", code)
	}
	if got := p.Drain(10); len(got) != 2 || got[0] != c || got[1] != b {
		t.Fatalf("drain after requeue = %v, want the pending one then the requeued one", got)
	}
	// A requeued transaction ages from its admission, not from the requeue.
	p.Requeue([]*types.Transaction{b})
	if exp := p.Sweep(now.Add(2 * time.Second)); len(exp) != 1 || exp[0] != b {
		t.Fatalf("sweep expired %v, want the requeued transaction", exp)
	}
}
