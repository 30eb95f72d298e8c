package ledger

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sharper/internal/types"
)

func intraTx(client types.NodeID, seq uint64, cluster types.ClusterID) *types.Transaction {
	return &types.Transaction{
		ID:       types.TxID{Client: client, Seq: seq},
		Client:   client,
		Ops:      []types.Op{{From: 0, To: 1, Amount: 1}},
		Involved: types.ClusterSet{cluster},
	}
}

func crossTx(client types.NodeID, seq uint64, clusters ...types.ClusterID) *types.Transaction {
	return &types.Transaction{
		ID:       types.TxID{Client: client, Seq: seq},
		Client:   client,
		Ops:      []types.Op{{From: 0, To: 1, Amount: 1}},
		Involved: types.NewClusterSet(clusters...),
	}
}

// appendIntra appends an intra-shard block chaining to the view head.
func appendIntra(t *testing.T, v *View, tx *types.Transaction) *types.Block {
	t.Helper()
	b := &types.Block{Txs: []*types.Transaction{tx}, Parents: []types.Hash{v.Head()}}
	if err := v.Append(b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestViewChaining(t *testing.T) {
	v := NewView(0)
	if v.Len() != 1 {
		t.Fatalf("fresh view has %d blocks, want 1 (genesis)", v.Len())
	}
	if v.Head() != GenesisHash() {
		t.Fatal("fresh view head is not genesis")
	}
	if seq, head := v.HeadInfo(); seq != 0 || head != GenesisHash() {
		t.Fatalf("fresh view head info = (%d, %s)", seq, head)
	}
	b1 := appendIntra(t, v, intraTx(types.ClientIDBase+1, 1, 0))
	if seq, head := v.HeadInfo(); seq != 1 || head != b1.Hash() {
		t.Fatalf("head info = (%d, %s), want (1, %s)", seq, head, b1.Hash())
	}
	b2 := appendIntra(t, v, intraTx(types.ClientIDBase+1, 2, 0))
	if v.Head() != b2.Hash() {
		t.Fatal("head not advanced")
	}
	// The view hands back decoded copies that hash to what it chained.
	for i, want := range []*types.Block{GenesisBlock(), b1, b2} {
		got := v.Block(i)
		if got == want || got.Hash() != want.Hash() || got.Txs[0].ID != want.Txs[0].ID {
			t.Fatalf("block %d: got %+v, want a copy of %+v", i, got, want)
		}
	}
	if err := v.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestViewRejectsWrongParent(t *testing.T) {
	v := NewView(0)
	appendIntra(t, v, intraTx(types.ClientIDBase+1, 1, 0))
	bad := &types.Block{
		Txs:     []*types.Transaction{intraTx(types.ClientIDBase+1, 2, 0)},
		Parents: []types.Hash{GenesisHash()}, // stale parent
	}
	if err := v.Append(bad); err == nil {
		t.Fatal("append with stale parent succeeded")
	}
}

func TestViewRejectsForeignBlock(t *testing.T) {
	v := NewView(0)
	b := &types.Block{
		Txs:     []*types.Transaction{intraTx(types.ClientIDBase+1, 1, 3)}, // cluster 3, not ours
		Parents: []types.Hash{v.Head()},
	}
	if err := v.Append(b); err == nil {
		t.Fatal("appended a block that does not involve this cluster")
	}
}

func TestCrossShardParentSlots(t *testing.T) {
	v0, v1 := NewView(0), NewView(1)
	appendIntra(t, v0, intraTx(types.ClientIDBase+1, 1, 0))
	appendIntra(t, v1, intraTx(types.ClientIDBase+2, 1, 1))

	x := &types.Block{
		Txs:     []*types.Transaction{crossTx(types.ClientIDBase+3, 1, 0, 1)},
		Parents: []types.Hash{v0.Head(), v1.Head()}, // slot order = involved order
	}
	if err := v0.Append(x); err != nil {
		t.Fatal(err)
	}
	if err := v1.Append(x); err != nil {
		t.Fatal(err)
	}
	if len(v0.CrossShardBlocks()) != 1 || len(v1.CrossShardBlocks()) != 1 {
		t.Fatal("cross-shard block not visible in both views")
	}
	if err := NewDAG(v0, v1).Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDAGDetectsMissingCrossBlock(t *testing.T) {
	v0, v1 := NewView(0), NewView(1)
	x := &types.Block{
		Txs:     []*types.Transaction{crossTx(types.ClientIDBase+3, 1, 0, 1)},
		Parents: []types.Hash{v0.Head(), v1.Head()},
	}
	if err := v0.Append(x); err != nil {
		t.Fatal(err)
	}
	// v1 never gets the block.
	if err := NewDAG(v0, v1).Verify(); err == nil {
		t.Fatal("DAG.Verify missed a cross-shard block absent from an involved view")
	}
}

func TestDAGDetectsConflictingOrder(t *testing.T) {
	v0, v1 := NewView(0), NewView(1)
	a := crossTx(types.ClientIDBase+1, 1, 0, 1)
	b := crossTx(types.ClientIDBase+2, 1, 0, 1)

	// v0 commits a then b; v1 commits b then a — an order violation.
	ba := &types.Block{Txs: []*types.Transaction{a}, Parents: []types.Hash{v0.Head(), v1.Head()}}
	if err := v0.Append(ba); err != nil {
		t.Fatal(err)
	}
	bb0 := &types.Block{Txs: []*types.Transaction{b}, Parents: []types.Hash{v0.Head(), GenesisHash()}}
	if err := v0.Append(bb0); err != nil {
		t.Fatal(err)
	}
	bb1 := &types.Block{Txs: []*types.Transaction{b}, Parents: []types.Hash{types.HashBytes([]byte("x")), v1.Head()}}
	if err := v1.Append(bb1); err != nil {
		t.Fatal(err)
	}
	ba1 := &types.Block{Txs: []*types.Transaction{a}, Parents: []types.Hash{types.HashBytes([]byte("y")), v1.Head()}}
	if err := v1.Append(ba1); err != nil {
		t.Fatal(err)
	}
	if err := NewDAG(v0, v1).VerifyPairwiseOrder(); err == nil {
		t.Fatal("VerifyPairwiseOrder missed conflicting cross-shard orders")
	}
}

// appendBatch appends a multi-tx intra-shard block chaining to the view head.
func appendBatch(t *testing.T, v *View, txs ...*types.Transaction) *types.Block {
	t.Helper()
	b := &types.Block{Txs: txs, Parents: []types.Hash{v.Head()}}
	if err := v.Append(b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMultiTxBlockAppend: a batched block appends as one chain link and reads
// back with every member transaction, in order.
func TestMultiTxBlockAppend(t *testing.T) {
	v := NewView(0)
	txs := []*types.Transaction{
		intraTx(types.ClientIDBase+1, 1, 0),
		intraTx(types.ClientIDBase+1, 2, 0),
		intraTx(types.ClientIDBase+2, 1, 0),
	}
	appendBatch(t, v, txs...)
	if v.Len() != 2 {
		t.Fatalf("len %d, want 2 (genesis + one batched block)", v.Len())
	}
	got := v.Block(1).Txs
	if len(got) != len(txs) {
		t.Fatalf("stored block holds %d txs, want %d", len(got), len(txs))
	}
	for i, tx := range txs {
		if got[i].ID != tx.ID {
			t.Fatalf("batched tx %d reads back as %s, want %s", i, got[i].ID, tx.ID)
		}
	}
	if err := v.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiTxBlockRejectsIntraBlockDuplicate: the same transaction twice in
// one batch is a malformed block, not a tolerated re-ordering.
func TestMultiTxBlockRejectsIntraBlockDuplicate(t *testing.T) {
	v := NewView(0)
	tx := intraTx(types.ClientIDBase+1, 1, 0)
	b := &types.Block{Txs: []*types.Transaction{tx, tx}, Parents: []types.Hash{v.Head()}}
	if err := v.Append(b); err == nil {
		t.Fatal("appended a block containing the same tx twice")
	}
	if v.Len() != 1 {
		t.Fatal("rejected block still advanced the chain")
	}
}

// TestMultiTxBlockRejectsMixedInvolvedSets: every transaction of a batch
// must share one involved-cluster set or the parent-slot layout is undefined.
func TestMultiTxBlockRejectsMixedInvolvedSets(t *testing.T) {
	v := NewView(0)
	b := &types.Block{
		Txs: []*types.Transaction{
			intraTx(types.ClientIDBase+1, 1, 0),
			crossTx(types.ClientIDBase+1, 2, 0, 1),
		},
		Parents: []types.Hash{v.Head()},
	}
	if err := v.Append(b); err == nil {
		t.Fatal("appended a block mixing involved-cluster sets")
	}
	empty := &types.Block{Txs: nil, Parents: []types.Hash{v.Head()}}
	if err := v.Append(empty); err == nil {
		t.Fatal("appended an empty block")
	}
}

// TestMultiTxCrossShardBlock: a batched cross-shard block commits identically
// on every involved view and the DAG verifies, including per-tx positions in
// VerifyPairwiseOrder.
func TestMultiTxCrossShardBlock(t *testing.T) {
	v0, v1 := NewView(0), NewView(1)
	txs := []*types.Transaction{
		crossTx(types.ClientIDBase+1, 1, 0, 1),
		crossTx(types.ClientIDBase+2, 1, 0, 1),
	}
	x := &types.Block{Txs: txs, Parents: []types.Hash{v0.Head(), v1.Head()}}
	if err := v0.Append(x); err != nil {
		t.Fatal(err)
	}
	if err := v1.Append(x); err != nil {
		t.Fatal(err)
	}
	d := NewDAG(v0, v1)
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyPairwiseOrder(); err != nil {
		t.Fatal(err)
	}
	// Both views hold the one block, byte for byte.
	if v0.Block(1).Hash() != x.Hash() || v1.Block(1).Hash() != x.Hash() {
		t.Fatal("batched cross-shard block differs between its views")
	}
}

func TestRenderASCII(t *testing.T) {
	v := NewView(0)
	appendIntra(t, v, intraTx(types.ClientIDBase+1, 1, 0))
	out := NewDAG(v).RenderASCII()
	if out == "" {
		t.Fatal("empty rendering")
	}
}

// TestQuickChainVerify property: any sequence of correctly chained blocks
// verifies, and corrupting any stored block breaks verification.
func TestQuickChainVerify(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := NewView(0)
		n := 2 + rng.Intn(10)
		for i := 0; i < n; i++ {
			b := &types.Block{
				Txs:     []*types.Transaction{intraTx(types.ClientIDBase+1, uint64(i+1), 0)},
				Parents: []types.Hash{v.Head()},
			}
			if v.Append(b) != nil {
				return false
			}
		}
		if v.Verify() != nil {
			return false
		}
		// Corrupt one stored block: verification must fail. Block(i) is a
		// decoded copy, so the corruption goes to the stored bytes.
		idx := 1 + rng.Intn(n)
		v.flipStoredByte(idx, rng.Intn(v.storedLen(idx)))
		return v.Verify() != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDuplicateTxTolerated property: the chain records exactly what
// consensus decided — a duplicate transaction appends fine and the chain
// still verifies.
func TestQuickDuplicateTxTolerated(t *testing.T) {
	v := NewView(0)
	tx := intraTx(types.ClientIDBase+1, 1, 0)
	appendIntra(t, v, tx)
	appendIntra(t, v, tx)
	if v.Len() != 3 {
		t.Fatalf("len %d, want 3", v.Len())
	}
	if err := v.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestViewReadsDuringAppends: readers decode and verify from snapshots
// without the lock while blocks keep appending, slab changes included. Under
// the race detector this checks that an append writes only past what every
// snapshot covers.
func TestViewReadsDuringAppends(t *testing.T) {
	v := NewView(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			txs := make([]*types.Transaction, 1+i%16)
			for j := range txs {
				txs[j] = intraTx(types.ClientIDBase+1, uint64(i*16+j), 0)
			}
			if err := v.Append(&types.Block{Txs: txs, Parents: []types.Hash{v.Head()}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		blocks := v.Blocks()
		if err := v.Verify(); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(blocks); i++ {
			if blocks[i].Parents[0] != blocks[i-1].Hash() {
				t.Fatalf("block %d read back off the chain", i)
			}
		}
	}
}
