package types

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleTx() *Transaction {
	return &Transaction{
		ID:        TxID{Client: ClientIDBase + 7, Seq: 42},
		Kind:      TxTransfer,
		Client:    ClientIDBase + 7,
		Timestamp: 123456789,
		Ops: []Op{
			{From: 1, To: 5, Amount: 100},
			{From: 2, To: 6, Amount: -0x7fffffff},
		},
		Involved: NewClusterSet(1, 2),
	}
}

func TestTransactionRoundTrip(t *testing.T) {
	tx := sampleTx()
	enc := tx.Encode(nil)
	dec, n, err := DecodeTransaction(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	if !reflect.DeepEqual(tx, dec) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", tx, dec)
	}
}

func TestTransactionDigestStable(t *testing.T) {
	a, b := sampleTx(), sampleTx()
	if a.Digest() != b.Digest() {
		t.Fatal("equal transactions produced different digests")
	}
	b.Ops[0].Amount++
	if a.Digest() == b.Digest() {
		t.Fatal("different transactions produced the same digest")
	}
}

func TestTransactionDecodeShortInput(t *testing.T) {
	enc := sampleTx().Encode(nil)
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeTransaction(enc[:i]); err == nil {
			t.Fatalf("decode of %d-byte prefix succeeded", i)
		}
	}
}

func TestBlockRoundTrip(t *testing.T) {
	bl := &Block{
		Txs:     []*Transaction{sampleTx()},
		Parents: []Hash{HashBytes([]byte("a")), HashBytes([]byte("b"))},
	}
	enc := bl.Encode(nil)
	dec, n, err := DecodeBlock(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	if !reflect.DeepEqual(bl, dec) {
		t.Fatal("block round trip mismatch")
	}
	if bl.Hash() != dec.Hash() {
		t.Fatal("block hash changed across codec")
	}
}

// TestMultiTxBlockRoundTrip covers the batched-block codec: a block holding
// several transactions survives Encode∘Decode bit-exactly, and its hash and
// batch digest are stable across the codec.
func TestMultiTxBlockRoundTrip(t *testing.T) {
	txs := make([]*Transaction, 5)
	for i := range txs {
		txs[i] = sampleTx()
		txs[i].ID.Seq = uint64(42 + i)
		txs[i].Ops[0].Amount = int64(i * 7)
	}
	bl := &Block{
		Txs:     txs,
		Parents: []Hash{HashBytes([]byte("a")), HashBytes([]byte("b"))},
	}
	enc := bl.Encode(nil)
	dec, n, err := DecodeBlock(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	if !reflect.DeepEqual(bl, dec) {
		t.Fatal("multi-tx block round trip mismatch")
	}
	if bl.Hash() != dec.Hash() {
		t.Fatal("multi-tx block hash changed across codec")
	}
	if bl.BatchDigest() != dec.BatchDigest() {
		t.Fatal("batch digest changed across codec")
	}
	if !bl.Involved().Equal(txs[0].Involved) {
		t.Fatalf("Involved = %v, want %v", bl.Involved(), txs[0].Involved)
	}
	if !bl.IsCrossShard() {
		t.Fatal("two-cluster batch not classified cross-shard")
	}
}

// TestBatchDigestTamper asserts the batch digest covers every member: any
// mutated transaction, a reordered batch, or a dropped transaction yields a
// different digest.
func TestBatchDigestTamper(t *testing.T) {
	mk := func() []*Transaction {
		txs := make([]*Transaction, 3)
		for i := range txs {
			txs[i] = sampleTx()
			txs[i].ID.Seq = uint64(i)
		}
		return txs
	}
	base := BatchDigest(mk())
	tampered := mk()
	tampered[1].Ops[0].Amount++
	if BatchDigest(tampered) == base {
		t.Fatal("tampering with a middle transaction kept the digest")
	}
	reordered := mk()
	reordered[0], reordered[2] = reordered[2], reordered[0]
	if BatchDigest(reordered) == base {
		t.Fatal("reordering the batch kept the digest")
	}
	if BatchDigest(mk()[:2]) == base {
		t.Fatal("truncating the batch kept the digest")
	}
	if BatchDigest(mk()) != base {
		t.Fatal("equal batches produced different digests")
	}
}

// TestMultiTxConsensusMsgRoundTrip covers proposal messages carrying a
// full batch plus a validity bitmap in Seq.
func TestMultiTxConsensusMsgRoundTrip(t *testing.T) {
	txs := []*Transaction{sampleTx(), sampleTx(), sampleTx()}
	for i, tx := range txs {
		tx.ID.Seq = uint64(100 + i)
	}
	m := &ConsensusMsg{
		View:       7,
		Seq:        0b101, // validity bitmap: txs 0 and 2 valid
		Digest:     BatchDigest(txs),
		Cluster:    1,
		PrevHashes: []Hash{HashBytes([]byte("p"))},
		Txs:        txs,
	}
	dec, err := DecodeConsensusMsg(m.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, dec) {
		t.Fatal("batched consensus message round trip mismatch")
	}
	if dec.Digest != BatchDigest(dec.Txs) {
		t.Fatal("decoded batch digest mismatch")
	}
}

func TestConsensusMsgRoundTrip(t *testing.T) {
	m := &ConsensusMsg{
		View:       3,
		Seq:        99,
		Digest:     HashBytes([]byte("d")),
		Cluster:    2,
		PrevHashes: []Hash{HashBytes([]byte("p1")), HashBytes([]byte("p2"))},
		Txs:        []*Transaction{sampleTx()},
	}
	dec, err := DecodeConsensusMsg(m.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, dec) {
		t.Fatal("consensus message round trip mismatch")
	}
	// Without a transaction batch.
	m.Txs = nil
	dec, err = DecodeConsensusMsg(m.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Txs != nil {
		t.Fatal("expected nil transaction batch")
	}
}

func TestReplyRoundTrip(t *testing.T) {
	r := &Reply{TxID: TxID{Client: 9, Seq: 1}, Replica: 3, Committed: true, Result: -5}
	dec, err := DecodeReply(r.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, dec) {
		t.Fatal("reply round trip mismatch")
	}
}

func TestViewChangeRoundTrip(t *testing.T) {
	v := &ViewChange{
		NewView: 4, Cluster: 1, LastSeq: 17,
		LastHash: HashBytes([]byte("l")), PreparedSeq: 18, PreparedHash: HashBytes([]byte("p")),
	}
	dec, err := DecodeViewChange(v.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v, dec) {
		t.Fatal("view change round trip mismatch")
	}
}

func TestSyncRoundTrip(t *testing.T) {
	req := &SyncRequest{From: 12}
	gotReq, err := DecodeSyncRequest(req.Encode(nil))
	if err != nil || gotReq.From != 12 {
		t.Fatalf("sync request round trip: %v %+v", err, gotReq)
	}
	resp := &SyncResponse{From: 12, Blocks: []*Block{
		{Txs: []*Transaction{sampleTx()}, Parents: []Hash{HashBytes([]byte("x"))}},
		{Txs: []*Transaction{sampleTx()}, Parents: []Hash{HashBytes([]byte("y")), HashBytes([]byte("z"))}},
	}}
	gotResp, err := DecodeSyncResponse(resp.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, gotResp) {
		t.Fatal("sync response round trip mismatch")
	}
}

func TestPeekConsensusSeqMatchesDecode(t *testing.T) {
	m := &ConsensusMsg{View: 3, Seq: 41, Cluster: 2,
		PrevHashes: []Hash{HashBytes([]byte("p"))},
		Txs:        []*Transaction{sampleTx()}}
	b := m.Encode(nil)
	seq, ok := PeekConsensusSeq(b)
	if !ok || seq != 41 {
		t.Fatalf("peek = (%d, %v), want (41, true)", seq, ok)
	}
	if _, ok := PeekConsensusSeq(b[:15]); ok {
		t.Fatal("peek accepted a short buffer")
	}
}

// TestSchedStatsAdd: the deployment-wide aggregate sums every counter.
func TestSchedStatsAdd(t *testing.T) {
	s := &SchedStats{
		Node: 7, Proposes: 1, Withdraws: 2, Grants: 3, Decides: 4,
		LockExpiries: 5, Parks: 6, LeadsInFlight: 7, LeadHighWater: 8,
		TableSize: 9, Defers: 10, DefersAvoided: 11, SelfVoteWaits: 12,
	}
	var sum SchedStats
	sum.Add(s)
	sum.Add(s)
	want := SchedStats{
		Proposes: 2, Withdraws: 4, Grants: 6, Decides: 8,
		LockExpiries: 10, Parks: 12, LeadsInFlight: 14, LeadHighWater: 16,
		TableSize: 18, Defers: 20, DefersAvoided: 22, SelfVoteWaits: 24,
	}
	if sum != want {
		t.Fatalf("aggregate %+v, want %+v", sum, want)
	}
}

func TestMetricsDumpRoundTrip(t *testing.T) {
	d := &MetricsDump{Node: 9, Metrics: []MetricVal{
		{Name: "committed_txs", Kind: 0, Values: []uint64{42}},
		{Name: "queue_depth", Kind: 1, Values: []uint64{3}},
		{Name: "stage_cross_prepared_us", Kind: 2, Values: []uint64{2, 800, 0, 1, 1}},
	}}
	got, err := DecodeMetricsDump(d.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, got) {
		t.Fatalf("metrics dump round trip mismatch: %+v vs %+v", d, got)
	}
	if _, err := DecodeMetricsDump([]byte{1, 2, 3}); err == nil {
		t.Fatal("short metrics dump decoded without error")
	}
	// hostile count prefix must be rejected, not allocated
	hostile := make([]byte, 8)
	hostile[4], hostile[5], hostile[6], hostile[7] = 0xff, 0xff, 0xff, 0xff
	if _, err := DecodeMetricsDump(hostile); err == nil {
		t.Fatal("hostile metrics count decoded without error")
	}
}

func TestTxBatchRoundTrip(t *testing.T) {
	txs := []*Transaction{sampleTx(), sampleTx()}
	txs[1].ID.Seq = 43
	dec, err := DecodeTxBatch(EncodeTxBatch(nil, txs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(txs, dec) {
		t.Fatal("tx batch round trip mismatch")
	}
}

func TestClusterSet(t *testing.T) {
	cs := NewClusterSet(3, 1, 2, 1, 3)
	if !cs.Equal(ClusterSet{1, 2, 3}) {
		t.Fatalf("normalization failed: %v", cs)
	}
	if cs.Min() != 1 {
		t.Fatalf("Min = %v", cs.Min())
	}
	if !cs.Contains(2) || cs.Contains(4) {
		t.Fatal("Contains failed")
	}
	if !cs.Overlaps(NewClusterSet(3, 9)) {
		t.Fatal("Overlaps missed common cluster")
	}
	if cs.Overlaps(NewClusterSet(4, 5)) {
		t.Fatal("Overlaps reported disjoint sets as overlapping")
	}
}

func TestFailureModelSizes(t *testing.T) {
	cases := []struct {
		model   FailureModel
		f, size int
	}{
		{CrashOnly, 1, 3},
		{CrashOnly, 2, 5},
		{Byzantine, 1, 4},
		{Byzantine, 3, 10},
	}
	for _, c := range cases {
		if got := c.model.ClusterSize(c.f); got != c.size {
			t.Errorf("%s f=%d: size %d, want %d", c.model, c.f, got, c.size)
		}
	}
}

func TestNodeIDClasses(t *testing.T) {
	if NodeID(5).IsClient() {
		t.Fatal("replica classified as client")
	}
	if !(ClientIDBase + 1).IsClient() {
		t.Fatal("client classified as replica")
	}
}

// randomTx builds an arbitrary but well-formed transaction from fuzz input.
func randomTx(rng *rand.Rand) *Transaction {
	tx := &Transaction{
		ID:        TxID{Client: NodeID(rng.Uint32()), Seq: rng.Uint64()},
		Kind:      TxKind(rng.Intn(6)),
		Client:    NodeID(rng.Uint32()),
		Timestamp: rng.Int63(),
	}
	for i := 0; i < rng.Intn(5); i++ {
		tx.Ops = append(tx.Ops, Op{
			From: AccountID(rng.Uint64()), To: AccountID(rng.Uint64()), Amount: rng.Int63(),
		})
	}
	var ids []ClusterID
	for i := 0; i <= rng.Intn(4); i++ {
		ids = append(ids, ClusterID(rng.Intn(8)))
	}
	tx.Involved = NewClusterSet(ids...)
	return tx
}

// TestQuickTransactionCodec property: Encode∘Decode is the identity for any
// well-formed transaction.
func TestQuickTransactionCodec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tx := randomTx(rng)
		dec, n, err := DecodeTransaction(tx.Encode(nil))
		return err == nil && n == len(tx.Encode(nil)) && reflect.DeepEqual(tx, dec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDigestInjective property: distinct encodings imply distinct
// digests (collision resistance sanity at the codec level).
func TestQuickDigestInjective(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := randomTx(rand.New(rand.NewSource(seedA)))
		b := randomTx(rand.New(rand.NewSource(seedB)))
		encA, encB := a.Encode(nil), b.Encode(nil)
		if bytes.Equal(encA, encB) {
			return a.Digest() == b.Digest()
		}
		return a.Digest() != b.Digest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickClusterSetNormalized property: NewClusterSet always yields a
// sorted, duplicate-free set regardless of input.
func TestQuickClusterSetNormalized(t *testing.T) {
	f := func(raw []uint16) bool {
		ids := make([]ClusterID, len(raw))
		for i, r := range raw {
			ids[i] = ClusterID(r % 16)
		}
		cs := NewClusterSet(ids...)
		for i := 1; i < len(cs); i++ {
			if cs[i-1] >= cs[i] {
				return false
			}
		}
		for _, id := range ids {
			if !cs.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
