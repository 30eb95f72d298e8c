package types

import "testing"

func memoTx(amount int64) *Transaction {
	return &Transaction{
		ID:        TxID{Client: ClientIDBase + 1, Seq: 7},
		Client:    ClientIDBase + 1,
		Timestamp: 99,
		Ops:       []Op{{From: 1, To: 2, Amount: amount}},
		Involved:  ClusterSet{0},
	}
}

// TestDigestMemoizationInvalidation pins that a digest always reflects the
// transaction's current content: a decoded-then-mutated transaction never
// reports a stale digest, whether the mutation happens before or after the
// first Digest call.
func TestDigestMemoizationInvalidation(t *testing.T) {
	enc := memoTx(3).Encode(nil)
	dec, _, err := DecodeTransaction(enc)
	if err != nil {
		t.Fatal(err)
	}

	d1 := dec.Digest()
	if d1 != memoTx(3).Digest() {
		t.Fatal("decoded transaction digest differs from original")
	}
	// Mutate AFTER the digest was computed.
	dec.Ops[0].Amount = 4
	d2 := dec.Digest()
	if d2 == d1 {
		t.Fatal("mutated transaction reported the stale digest")
	}
	if d2 != memoTx(4).Digest() {
		t.Fatal("post-mutation digest does not match a fresh equivalent transaction")
	}
	// Mutate back: the digest tracks the content, not the history.
	dec.Ops[0].Amount = 3
	if dec.Digest() != d1 {
		t.Fatal("digest did not return to the original after undoing the mutation")
	}

	// Mutation BEFORE the first call must also be honest.
	dec2, _, err := DecodeTransaction(enc)
	if err != nil {
		t.Fatal(err)
	}
	dec2.Timestamp = 12345
	want := memoTx(3)
	want.Timestamp = 12345
	if dec2.Digest() != want.Digest() {
		t.Fatal("pre-first-call mutation produced a wrong digest")
	}
}

// TestBlockMemoizationInvalidation is the block-level counterpart: Hash and
// BatchDigest change as soon as any transaction in the batch (or, for Hash,
// a parent link) changes.
func TestBlockMemoizationInvalidation(t *testing.T) {
	bl := &Block{Txs: []*Transaction{memoTx(3), memoTx(5)}, Parents: []Hash{{1, 2, 3}}}
	h1, bd1 := bl.Hash(), bl.BatchDigest()
	if h1 != bl.Hash() || bd1 != bl.BatchDigest() {
		t.Fatal("repeated calls disagree")
	}

	bl.Txs[1].Ops[0].Amount = 6
	if bl.Hash() == h1 {
		t.Fatal("block hash stale after tx mutation")
	}
	if bl.BatchDigest() == bd1 {
		t.Fatal("batch digest stale after tx mutation")
	}
	if bl.BatchDigest() != BatchDigest(bl.Txs) {
		t.Fatal("block batch digest disagrees with the free-function digest")
	}

	bl.Txs[1].Ops[0].Amount = 5
	if bl.Hash() != h1 || bl.BatchDigest() != bd1 {
		t.Fatal("digests did not return after undoing the mutation")
	}

	bl.Parents[0] = Hash{9}
	if bl.Hash() == h1 {
		t.Fatal("block hash stale after parent mutation")
	}
	if bl.BatchDigest() != bd1 {
		t.Fatal("batch digest must not cover parent links")
	}
}

// TestDecodedBlockDigestsMatch guards the decode path: a round-tripped
// block's digests agree with the original's.
func TestDecodedBlockDigestsMatch(t *testing.T) {
	bl := &Block{Txs: []*Transaction{memoTx(3)}, Parents: []Hash{{7}}}
	dec, _, err := DecodeBlock(bl.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Hash() != bl.Hash() || dec.BatchDigest() != bl.BatchDigest() {
		t.Fatal("decoded block digests diverge from original")
	}
}
