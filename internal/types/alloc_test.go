//go:build !race

// Steady-state allocation regressions for the wire codec hot path. The
// counts are contractual (see ISSUE/DESIGN "hot path"): encoding a
// consensus message into a reused buffer and deriving a digest must not
// allocate at all. Excluded under the race detector, which adds
// its own allocations.

package types

import "testing"

func allocBatch(n int) []*Transaction {
	txs := make([]*Transaction, n)
	for i := range txs {
		txs[i] = &Transaction{
			ID:        TxID{Client: ClientIDBase + 1, Seq: uint64(i)},
			Client:    ClientIDBase + 1,
			Timestamp: int64(i),
			Ops:       []Op{{From: 1, To: 2, Amount: 3}},
			Involved:  ClusterSet{0},
		}
	}
	return txs
}

func assertAllocs(t *testing.T, what string, max, got float64) {
	t.Helper()
	if got > max {
		t.Fatalf("%s allocates %.1f per op in steady state (max %.0f)", what, got, max)
	}
}

func TestEnvelopeEncodeAllocs(t *testing.T) {
	m := &ConsensusMsg{View: 3, Seq: 9, Cluster: 1, PrevHashes: []Hash{{1}}, Txs: allocBatch(16)}
	env := &Envelope{Type: MsgPrePrepare, From: 2, Payload: m.Encode(nil), Sig: make([]byte, 32)}
	buf := make([]byte, 0, 4096)
	n := testing.AllocsPerRun(200, func() { buf = env.Encode(buf[:0]) })
	assertAllocs(t, "Envelope.Encode into a reused buffer", 0, n)
}

func TestEnvelopeDecodeAllocs(t *testing.T) {
	m := &ConsensusMsg{View: 3, Seq: 9, Cluster: 1, PrevHashes: []Hash{{1}}, Txs: allocBatch(16)}
	enc := (&Envelope{Type: MsgPrePrepare, From: 2, Payload: m.Encode(nil), Sig: make([]byte, 32)}).Encode(nil)
	n := testing.AllocsPerRun(200, func() {
		if _, _, err := DecodeEnvelope(enc); err != nil {
			t.Fatal(err)
		}
	})
	// Exactly the envelope object itself: payload and signature alias the
	// input buffer.
	assertAllocs(t, "DecodeEnvelope", 1, n)
}

func TestConsensusMsgEncodeAllocs(t *testing.T) {
	m := &ConsensusMsg{View: 3, Seq: 9, Cluster: 1, PrevHashes: []Hash{{1}}, Txs: allocBatch(16)}
	buf := make([]byte, 0, 4096)
	n := testing.AllocsPerRun(200, func() { buf = m.Encode(buf[:0]) })
	assertAllocs(t, "ConsensusMsg.Encode into a reused buffer", 0, n)
}

func TestTxDigestSteadyStateAllocs(t *testing.T) {
	tx := allocBatch(1)[0]
	tx.Digest() // warm the scratch pool
	n := testing.AllocsPerRun(200, func() { tx.Digest() })
	assertAllocs(t, "Transaction.Digest", 0, n)
}

func TestBlockDigestSteadyStateAllocs(t *testing.T) {
	bl := &Block{Txs: allocBatch(16), Parents: []Hash{{1}}}
	bl.Hash()
	bl.BatchDigest()
	n := testing.AllocsPerRun(200, func() { bl.Hash() })
	assertAllocs(t, "Block.Hash", 0, n)
	n = testing.AllocsPerRun(200, func() { bl.BatchDigest() })
	assertAllocs(t, "Block.BatchDigest", 0, n)
}

// TestDigestFirstCallAllocs pins that deriving a digest leaves nothing behind
// on the value: the first call on a freshly decoded transaction or block, the
// one the commit path makes, allocates no more than every later call does.
func TestDigestFirstCallAllocs(t *testing.T) {
	const runs = 200
	txs := allocBatch(runs + 1) // AllocsPerRun adds one warm-up call
	blocks := make([]*Block, runs+1)
	for i := range blocks {
		blocks[i] = &Block{Txs: allocBatch(4), Parents: []Hash{{byte(i)}}}
	}
	BatchDigest(txs) // warm the scratch pool
	for _, c := range []struct {
		what string
		call func(i int)
	}{
		{"Transaction.Digest on a fresh transaction", func(i int) { txs[i].Digest() }},
		{"Block.Hash on a fresh block", func(i int) { blocks[i].Hash() }},
		{"Block.BatchDigest on a fresh block", func(i int) { blocks[i].BatchDigest() }},
	} {
		i := 0
		n := testing.AllocsPerRun(runs, func() { c.call(i); i++ })
		assertAllocs(t, c.what, 0, n)
	}
}

func TestBatchDigestAllocs(t *testing.T) {
	txs := allocBatch(16)
	BatchDigest(txs) // warm the scratch pool
	n := testing.AllocsPerRun(200, func() { BatchDigest(txs) })
	assertAllocs(t, "BatchDigest (pooled scratch)", 0, n)
}
