//go:build !race

// Retained-memory guard for the committed chain. Excluded under the race
// detector, which shadows every allocation.

package ledger

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"sharper/internal/types"
)

// TestViewRetainedBytesPerTx bounds what a view keeps per committed
// transaction once the commit path is done with it: the block's canonical
// encoding, its location and the chain's hash — and nothing else. It decodes
// a chain of wire blocks, derives every digest the commit path derives (batch
// digest, block hash, each transaction digest), appends them, and reads the
// heap after a forced collection. A view that kept the decoded objects, a
// digest that left a copy of its encoding on the value, or an index nothing
// reads shows up in the retained bound. The scannable bound is what the
// collector has to walk on every cycle: the chain's history must hold no
// pointers, so it stays out of the mark phase however long the chain grows.
func TestViewRetainedBytesPerTx(t *testing.T) {
	const blocks, perBlock = 4096, 4
	const maxPerTx = 100   // bytes retained
	const maxScanPerTx = 8 // scannable bytes

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
	scanBefore := scannableHeap()
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
	scanAfter := scannableHeap()
	runtime.KeepAlive(wire)
	runtime.KeepAlive(v)

	perTx := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (blocks * perBlock)
	scanPerTx := float64(int64(scanAfter)-int64(scanBefore)) / (blocks * perBlock)
	t.Logf("view retains %.1f B per committed transaction, %.2f B of it scannable", perTx, scanPerTx)
	if perTx > maxPerTx {
		t.Fatalf("view retains %.1f B per committed transaction, want ≤ %d", perTx, maxPerTx)
	}
	if scanPerTx > maxScanPerTx {
		t.Fatalf("view holds %.2f scannable B per committed transaction, want ≤ %d", scanPerTx, maxScanPerTx)
	}
}

// scannableHeap reads the heap bytes the collector would scan, as of the
// last collection.
func scannableHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		panic("runtime/metrics: /gc/scan/heap:bytes unsupported")
	}
	return s[0].Value.Uint64()
}
