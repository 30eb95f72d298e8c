//go:build !race

// Steady-state allocation bound for admission. Excluded under the race
// detector, which adds its own allocations.

package mempool

import (
	"testing"
	"time"

	"sharper/internal/types"
)

// TestAdmitAllocs: a warm Admit allocates the record and nothing else; the
// capacity it charges is computed, not encoded.
func TestAdmitAllocs(t *testing.T) {
	const n = 20_000
	now := time.Now()
	p := New(Config{MaxCount: 2 * n})
	txs := make([]*types.Transaction, 2*n)
	for i := range txs {
		txs[i] = mkTx(types.ClientIDBase, uint64(i+1), now)
	}
	// Warm the index to its working size, then empty it.
	ids := make([]types.TxID, n)
	for i, tx := range txs[:n] {
		p.Admit(tx, now)
		ids[i] = tx.ID
	}
	p.Settle(ids, nil)
	next := n
	got := testing.AllocsPerRun(n-1, func() {
		if p.Admit(txs[next], now) != Admitted {
			t.Fatal("fresh transaction refused")
		}
		next++
	})
	if got > 1 {
		t.Fatalf("warm Admit allocates %.2f times per transaction, want at most 1", got)
	}
}
