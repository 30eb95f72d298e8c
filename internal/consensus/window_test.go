package consensus

import (
	"testing"
	"time"

	"sharper/internal/types"
)

func windowTx(seq uint64, ts time.Time) *types.Transaction {
	return &types.Transaction{ID: types.TxID{Client: types.ClientIDBase + 1, Seq: seq}, Timestamp: ts.UnixNano()}
}

// TestCommitWindowStates: a noted transaction is on the chain (Contains) but
// has no verdict (Get) until the first execution settles it; a note never
// resets a settled entry, and a rejected verdict reads back as rejected.
func TestCommitWindowStates(t *testing.T) {
	w := NewCommitWindow()
	now := time.Now()
	a, b, c := windowTx(1, now), windowTx(2, now), windowTx(3, now)
	w.Note([]*types.Transaction{a, b})
	if !w.Contains(a.ID) || !w.Contains(b.ID) {
		t.Fatal("noted transactions not contained")
	}
	if w.Contains(c.ID) {
		t.Fatal("unnoted transaction contained")
	}
	if _, ok := w.Get(a.ID); ok {
		t.Fatal("pending entry returned a verdict")
	}
	w.Put(a.ID, true)
	w.Put(b.ID, false)
	// The same transaction appended again (ordered twice) is noted again.
	w.Note([]*types.Transaction{a, b})
	if committed, ok := w.Get(a.ID); !ok || !committed {
		t.Fatalf("note reset a committed entry: committed %v, settled %v", committed, ok)
	}
	if committed, ok := w.Get(b.ID); !ok || committed {
		t.Fatalf("rejected entry reads back as committed %v, settled %v", committed, ok)
	}
	if w.Len() != 2 {
		t.Fatalf("len %d, want 2", w.Len())
	}
}

// TestCommitWindowHasNoCountBound: far more transactions than the count bound
// the reply cache used to have (1<<17) commit inside one TTL, and sweeping at
// the TTL evicts none of them — least of all the first.
func TestCommitWindowHasNoCountBound(t *testing.T) {
	const ttl = 30 * time.Second
	const n = 1<<17 + 1000
	w := NewCommitWindow()
	now := time.Now()
	batch := make([]*types.Transaction, 0, 64)
	for seq := uint64(1); seq <= n; seq++ {
		batch = append(batch, windowTx(seq, now))
		if len(batch) == cap(batch) || seq == n {
			w.Note(batch)
			for _, tx := range batch {
				w.Put(tx.ID, true)
			}
			batch = batch[:0]
		}
	}
	if dropped := w.Sweep(time.Now().Add(-ttl)); dropped != 0 {
		t.Fatalf("sweep at the TTL dropped %d entries inside it", dropped)
	}
	if w.Len() != n {
		t.Fatalf("window holds %d entries, want %d", w.Len(), n)
	}
	if committed, ok := w.Get(windowTx(1, now).ID); !ok || !committed {
		t.Fatal("the first transaction's verdict was evicted inside the TTL")
	}
	// Past the TTL, everything goes.
	if dropped := w.Sweep(time.Now().Add(time.Second)); dropped != n {
		t.Fatalf("sweep past the TTL dropped %d, want %d", dropped, n)
	}
}

// TestCommitWindowStampsFutureTimestamps: an entry lives until
// max(insertion, client timestamp) + TTL. A transaction stamped ahead of the
// replica's clock outlives its insertion by the skew, and does not hold up
// the expiry of the entries inserted after it.
func TestCommitWindowStampsFutureTimestamps(t *testing.T) {
	w := NewCommitWindow()
	now := time.Now()
	ahead := windowTx(1, now.Add(time.Hour))
	w.Note([]*types.Transaction{ahead})
	w.Note([]*types.Transaction{windowTx(2, now), windowTx(3, now)})
	if dropped := w.Sweep(time.Now().Add(time.Minute)); dropped != 2 {
		t.Fatalf("sweep a minute on dropped %d, want the 2 current entries", dropped)
	}
	if !w.Contains(ahead.ID) {
		t.Fatal("future-stamped entry evicted before its own timestamp")
	}
	if dropped := w.Sweep(now.Add(time.Hour + time.Second)); dropped != 1 || w.Len() != 0 {
		t.Fatalf("sweep past the future stamp dropped %d, left %d", dropped, w.Len())
	}
}

// BenchmarkCommitWindowSteadyState runs on a window holding about 100k
// entries, as a replica's does under load. "round" is one block's round trip:
// the block's 16 transactions are noted, looked up at ingest, settled and
// read back by the executor, and the oldest block is swept out. "rejected" is
// what a checkpoint pays while one of those entries is a live rejection:
// Rejected walks every record, under the window's lock and with the
// executor paused.
func BenchmarkCommitWindowSteadyState(b *testing.B) {
	const live, perBlock = 100_000, 16
	w := NewCommitWindow()
	block := make([]*types.Transaction, perBlock)
	for j := range block {
		block[j] = windowTx(0, time.Now())
	}
	// noted[k] is read just after block k was noted: sweeping at it drops
	// that block and everything older.
	noted := make([]time.Time, live/perBlock)
	seq, k := uint64(0), 0
	round := func() {
		for _, tx := range block {
			seq++
			tx.ID.Seq = seq
		}
		w.Note(block)
		noted[k] = time.Now()
		k = (k + 1) % len(noted)
		for _, tx := range block {
			w.Contains(tx.ID)
			w.Put(tx.ID, true)
			w.Get(tx.ID)
		}
	}
	for range noted {
		round()
	}
	b.Run("round", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Sweep(noted[k])
			round()
		}
	})
	b.Run("rejected", func(b *testing.B) {
		w.Put(block[0].ID, false)
		dst := w.Rejected(nil)
		if len(dst) != 1 {
			b.Fatalf("Rejected returned %d entries, want 1", len(dst))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = w.Rejected(dst[:0])
		}
		b.ReportMetric(float64(w.Len()), "entries")
	})
}
