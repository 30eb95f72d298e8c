//go:build !race

// Retained-memory guard for the committed chain. Excluded under the race
// detector, which shadows every allocation.

package ledger

import (
	"runtime"
	"testing"

	"sharper/internal/types"
)

// TestViewRetainedBytesPerTx bounds what a view keeps per committed
// transaction once the commit path is done with it: the decoded block and
// its transactions, the chain's hash and the dedup entry — and nothing else.
// It decodes a chain of wire blocks, derives every digest the commit path
// derives (batch digest, block hash, each transaction digest), appends them,
// and reads the heap after a forced collection. A digest that left a copy of
// its encoding on the value, or an index nothing reads, shows up here.
func TestViewRetainedBytesPerTx(t *testing.T) {
	const blocks, perBlock = 4096, 4
	const maxPerTx = 300 // bytes

	wire := make([][]byte, blocks)
	parent := GenesisHash()
	for i := range wire {
		b := &types.Block{Parents: []types.Hash{parent}}
		for j := 0; j < perBlock; j++ {
			seq := uint64(i*perBlock + j)
			b.Txs = append(b.Txs, &types.Transaction{
				ID:        types.TxID{Client: types.ClientIDBase + 1, Seq: seq},
				Client:    types.ClientIDBase + 1,
				Timestamp: int64(seq),
				Ops:       []types.Op{{From: 1, To: 2, Amount: 3}},
				Involved:  types.ClusterSet{0},
			})
		}
		wire[i] = b.Encode(nil)
		parent = b.Hash()
	}

	v := NewView(0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, enc := range wire {
		b, _, err := types.DecodeBlock(enc)
		if err != nil {
			t.Fatal(err)
		}
		b.BatchDigest()
		b.Hash()
		for _, tx := range b.Txs {
			tx.Digest()
		}
		if err := v.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(wire)
	runtime.KeepAlive(v)

	perTx := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (blocks * perBlock)
	t.Logf("view retains %.0f B per committed transaction", perTx)
	if perTx > maxPerTx {
		t.Fatalf("view retains %.0f B per committed transaction, want ≤ %d", perTx, maxPerTx)
	}
}
